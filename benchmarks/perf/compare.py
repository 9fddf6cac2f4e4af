"""Compare two benchmark records: one row per (workload, end-to-end metric).

A record is what ``python -m benchmarks.perf`` writes.  Each row shows
both values, the ratio with its base, the bound and a verdict: ``ok``,
``REGRESSED`` (worse than the base by more than the bound) or
``unresolved`` (the spread between passes is wider than the bound, so
the record cannot tell).  Operations must not fail more often, and on
DES workloads every exact counter must repeat.
"""

from __future__ import annotations

import dataclasses

from benchmarks.perf.layers import END_TO_END, PER_LAYER
from benchmarks.perf.workloads import WORKLOADS

__all__ = ["Row", "compare", "render", "verdict"]

EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


@dataclasses.dataclass
class Row:
    workload: str
    metric: str
    base: str
    other: str
    ratio: str
    bound: str
    verdict: str


def _spread(metric: dict) -> float:
    """Inter-quartile distance as a share of the median; 0 when the
    metric has too few samples for quartiles to be more than its extremes."""
    if metric.get("n", 0) < 4 or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base: dict, other: dict, better: str, bound: float) -> str:
    """Judge ``other`` against ``base`` for one metric."""
    def quartile(metric: dict, key: str) -> float:
        return metric.get(key, metric["value"])

    if better == "lower":
        worse = (other["value"] - base["value"]) / base["value"]
        clear = quartile(other, "q3") < quartile(base, "q1")
    else:
        worse = (base["value"] - other["value"]) / base["value"]
        clear = quartile(other, "q1") > quartile(base, "q3")
    if max(_spread(base), _spread(other)) > bound:
        # the samples overlap too much to tell, unless the other side's
        # quartiles all read better than the base's
        return "ok" if clear else "unresolved"
    return "REGRESSED" if worse > bound else "ok"


def compare(base: dict, other: dict) -> list[Row]:
    rows: list[Row] = []
    for name in WORKLOADS:
        a = base["workloads"].get(name)
        b = other["workloads"].get(name)
        if a is None or b is None:
            continue
        if "end_to_end" in a and "end_to_end" in b:
            for metric, unit, better, bound in END_TO_END:
                x, y = a["end_to_end"][metric], b["end_to_end"][metric]
                rows.append(
                    Row(
                        name,
                        metric,
                        f"{x['value']:.4g} {unit}",
                        f"{y['value']:.4g} {unit}",
                        f"{y['value'] / x['value']:.3f} of {x['value']:.4g}",
                        f"{bound:.0%}",
                        verdict(x, y, better, bound),
                    )
                )
        rows.append(
            Row(
                name,
                "failed_ops",
                f"{a['failed']}/{a['attempted']}",
                f"{b['failed']}/{b['attempted']}",
                "-",
                "any rise",
                "REGRESSED"
                if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]
                else "ok",
            )
        )
        if WORKLOADS[name].deterministic and "per_layer" in a and "per_layer" in b:
            moved = [
                counter
                for counter in EXACT
                if a["per_layer"][counter]["value"] != b["per_layer"][counter]["value"]
            ]
            rows.append(
                Row(
                    name,
                    "counters",
                    f"{len(EXACT)} exact",
                    ", ".join(moved) or "identical",
                    "-",
                    "exact",
                    "REGRESSED" if moved else "ok",
                )
            )
    return rows


def render(rows: list[Row]) -> str:
    header = Row("workload", "metric", "base", "other", "ratio (of base)", "bound", "verdict")
    table = [dataclasses.astuple(row) for row in [header, *rows]]
    widths = [max(len(line[col]) for line in table) for col in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    )
