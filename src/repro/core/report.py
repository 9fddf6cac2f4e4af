"""Analysis reports: human-readable text and machine-readable JSON.

:func:`render_report` combines stream labels, anomaly classes, the verdict
and the synthesized coordination plan into the text report the ``blazes
analyze`` CLI prints (``--derivations`` appends
:func:`repro.core.derivation.render_all`).  :func:`report_to_dict`
serializes the same content, derivations included on request, as a
JSON-able mapping — the shared format behind
``blazes analyze --json`` / ``blazes plan --json``, so CI and the audit
can diff predictions without scraping text (the audit campaign's own
serializer, ``audit_to_dict``, sits beside the campaign, not here).
"""

from __future__ import annotations

from typing import Any

from repro.core.analysis import AnalysisResult
from repro.core.derivation import render_output
from repro.core.labels import LabelKind
from repro.core.strategy import (
    CoordinationPlan,
    OrderStrategy,
    SealStrategy,
    choose_strategies,
)

__all__ = ["plan_to_dict", "render_report", "report_to_dict"]

_ANOMALY_GLOSS = {
    LabelKind.ASYNC: "deterministic contents; nondeterministic order",
    LabelKind.SEAL: "punctuated stream; deterministic batches",
    LabelKind.RUN: "cross-run nondeterminism: replay-based fault tolerance unsafe",
    LabelKind.INST: "cross-instance nondeterminism: replicas may disagree transiently",
    LabelKind.DIVERGE: "replica divergence: replicated state permanently inconsistent",
}


def render_report(result: AnalysisResult, plan: CoordinationPlan | None = None) -> str:
    """Render a complete text report for one analysis."""
    plan = plan if plan is not None else choose_strategies(result)
    lines: list[str] = []
    push = lines.append

    push(f"Blazes analysis: {result.dataflow.name}")
    push("=" * (17 + len(result.dataflow.name)))
    push("")
    push("Stream labels")
    push("-------------")
    width = max((len(s.name) for s in result.dataflow.streams), default=4)
    for stream in result.dataflow.streams:
        label = result.stream_labels[stream.name]
        gloss = _ANOMALY_GLOSS.get(label.kind, "")
        rep = " [Rep]" if result.stream_rep.get(stream.name) else ""
        push(f"  {stream.name:<{width}}  {str(label):<14}{rep}  {gloss}")
    push("")

    if result.cycles:
        push("Collapsed cycles")
        push("----------------")
        for members in result.cycles:
            push(f"  {{{', '.join(sorted(members))}}}")
        push("")

    push(f"Verdict: worst sink severity {result.severity} "
         f"({'consistent without coordination' if result.is_consistent else 'coordination required'})")
    needing = result.components_needing_coordination()
    if needing:
        push(f"Components needing coordination: {', '.join(needing)}")
    push("")

    push("Coordination plan")
    push("-----------------")
    for line in plan.describe().splitlines():
        push(f"  {line}")
    return "\n".join(lines)


def plan_to_dict(plan: CoordinationPlan) -> dict[str, Any]:
    """Serialize a coordination plan as a JSON-able mapping."""
    strategies: list[dict[str, Any]] = []
    for name, strategy in plan.strategies.items():
        entry: dict[str, Any] = {
            "component": name,
            "kind": strategy.kind,
            "description": strategy.describe(),
        }
        if isinstance(strategy, SealStrategy):
            entry["partitions"] = [
                {"stream": stream, "key": sorted(key)}
                for stream, key in strategy.partitions
            ]
            entry["gates"] = [sorted(gate) for gate in strategy.gates]
        elif isinstance(strategy, OrderStrategy):
            entry["streams"] = list(strategy.streams)
            if strategy.reason:
                entry["reason"] = strategy.reason
            else:
                entry["topic"] = strategy.topic
        strategies.append(entry)
    return {
        "coordinated_components": list(plan.coordinated_components),
        "uses_global_order": plan.uses_global_order,
        "strategies": strategies,
    }


def report_to_dict(
    result: AnalysisResult,
    plan: CoordinationPlan | None = None,
    *,
    derivations: bool = False,
) -> dict[str, Any]:
    """Serialize one analysis (and its plan) as a JSON-able mapping.

    The shared machine-readable report format: the same labels
    :func:`render_report` prints, keyed for programmatic diffing.
    ``derivations=True`` additionally includes the rendered derivation
    tree per output interface.
    """
    plan = plan if plan is not None else choose_strategies(result)
    streams = []
    for stream in result.dataflow.streams:
        label = result.stream_labels[stream.name]
        streams.append(
            {
                "name": stream.name,
                "label": str(label),
                "kind": label.kind.value,
                "severity": label.severity,
                "rep": bool(result.stream_rep.get(stream.name)),
                "external_input": stream.is_external_input,
                "sink": stream.is_external_output,
            }
        )
    payload: dict[str, Any] = {
        "dataflow": result.dataflow.name,
        "streams": streams,
        "sinks": {
            name: str(label) for name, label in result.sink_labels.items()
        },
        "severity": result.severity,
        "consistent": result.is_consistent,
        "components_needing_coordination": list(
            result.components_needing_coordination()
        ),
        "cycles": [sorted(members) for members in result.cycles],
        "plan": plan_to_dict(plan),
    }
    if derivations:
        payload["derivations"] = {
            f"{component}.{iface}": render_output(record)
            for (component, iface), record in result.outputs.items()
        }
    return payload
