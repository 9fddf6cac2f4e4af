"""Render label derivations in the paper's proof-tree notation.

Section V-A4 of the paper writes derivations as::

    SL1 CA1 (R1) SL2
    SL3 CA2 (R2) SL4 [...]
    CN1 => SL5

where ``SL`` are stream labels, ``CA`` component annotations, ``R`` the
inference rule applied, and ``CN`` the component whose output labels the
merge procedure combines.  :func:`render_output` reproduces one such block
for a single output interface; :func:`render_all` prints one block per
output interface, in analysis order.
"""

from __future__ import annotations

from repro.core.analysis import AnalysisResult, OutputAnalysis

__all__ = ["render_output", "render_all"]


def render_output(record: OutputAnalysis) -> str:
    """One derivation block for one output interface."""
    lines = [str(step) for step in record.steps]
    if record.replicated:
        lines = [f"{line}   Rep" for line in lines]
    for note in record.reconciliation.notes:
        lines.append(f"  [{note}]")
    marker = " (cycle collapsed)" if record.collapsed else ""
    lines.append(f"{record.component}.{record.interface}{marker} => {record.merged}")
    return "\n".join(lines)


def render_all(result: AnalysisResult) -> str:
    """Derivation blocks for every output interface, in analysis order."""
    blocks = [render_output(record) for record in result.outputs.values()]
    return "\n\n".join(blocks)

