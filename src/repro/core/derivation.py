"""Render label derivations in the paper's proof-tree notation.

Section V-A4 of the paper writes derivations as::

    SL1 CA1 (R1) SL2
    SL3 CA2 (R2) SL4 [...]
    CN1 => SL5

where ``SL`` are stream labels, ``CA`` component annotations, ``R`` the
inference rule applied, and ``CN`` the component whose output labels the
merge procedure combines.  :func:`render_output` reproduces one such block
for a single output interface; :func:`render_chain` walks a dataflow from
its external inputs to a sink, printing one block per component.
"""

from __future__ import annotations

from repro.core.analysis import AnalysisResult, OutputAnalysis

__all__ = ["render_output", "render_chain", "render_all"]


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


def render_chain(result: AnalysisResult, sink_stream: str) -> str:
    """Derivation blocks along every component upstream of a sink stream."""
    dataflow = result.dataflow
    sink = dataflow.stream(sink_stream)
    if sink.src is None:
        return f"{sink.name} is an external input: {result.label_of(sink.name)}"

    # per component, the inputs feeding each output: one scan of its paths
    # however many of its outputs the walk visits
    feeding: dict[str, dict[str, list[str]]] = {}

    def upstream(component: str, out_iface: str):
        if component not in feeding:
            by_output = feeding[component] = {}
            for path in dataflow.component(component).paths:
                by_output.setdefault(path.to_iface, []).append(path.from_iface)
        for from_iface in feeding[component].get(out_iface, ()):
            for stream in dataflow.streams_into(component, from_iface):
                if stream.src is not None:
                    yield stream.src

    # iterative post-order over output interfaces, marked on entry: a cycle
    # (or a chain deeper than the recursion limit) ends the walk like any
    # other revisit
    visited: list[tuple[str, str]] = []
    entered = {sink.src}
    stack = [(sink.src, upstream(*sink.src))]
    while stack:
        key, pending = stack[-1]
        for producer in pending:
            if producer not in entered:
                entered.add(producer)
                stack.append((producer, upstream(*producer)))
                break
        else:
            stack.pop()
            visited.append(key)

    blocks = [render_output(result.output(c, i)) for c, i in visited]
    blocks.append(f"sink {sink.name} => {result.label_of(sink.name)}")
    return "\n\n".join(blocks)
