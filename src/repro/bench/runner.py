"""Scenarios and reports: the shared vocabulary of every sweep.

A benchmark is a list of :class:`Scenario` parameter points plus one
measurement function; :func:`repro.exec.evaluate` — the only loop over
cells — executes each point, times it, and collects the returned metric
mappings into a :class:`BenchReport` that can be queried by parameter
(for assertions), rendered as a table (for the console), and written as
``BENCH_<name>.json`` (for the record).  The figure scripts stay tiny:
declare the sweep, map params to a run, assert on the report.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from typing import Any

from repro.errors import BenchError

__all__ = [
    "Scenario",
    "ScenarioResult",
    "BenchReport",
    "aligned",
    "assemble_report",
    "sweep",
]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One parameter point of a benchmark sweep."""

    name: str
    # hash=False: params is a dict, which the generated __hash__ could not
    # digest; scenarios hash by name, compare by (name, params)
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """The metrics one scenario produced, plus its wall/CPU cost.

    ``cpu_seconds`` is the process CPU time of the measurement (``None``
    when only wall time was measured); alongside ``wall_seconds`` it makes
    scheduler noise visible in ``BENCH_*.json`` records.
    """

    name: str
    params: dict[str, Any]
    metrics: dict[str, Any]
    wall_seconds: float
    cpu_seconds: float | None = None

    def __getitem__(self, key: str) -> Any:
        return self.metrics[key]


def sweep(name_format: str, grid: Mapping[str, Iterable[Any]]) -> list[Scenario]:
    """The cartesian product of a parameter grid as scenarios.

    ``sweep("f{frame_size}-p{workers}", {"frame_size": (1, 16),
    "workers": (2, 4)})`` yields four scenarios named ``f1-p2`` ...
    ``f16-p4``.
    """
    points: list[dict[str, Any]] = [{}]
    for key, values in grid.items():
        points = [{**point, key: value} for point in points for value in values]
    return [Scenario(name_format.format(**point), point) for point in points]


class BenchReport:
    """The collected results of one benchmark run."""

    def __init__(self, name: str, results: list[ScenarioResult]) -> None:
        self.name = name
        self.results = list(results)
        # The evaluation engine's accounting block (jobs, cache hits,
        # pool utilization); None for a report assembled by hand.
        self.engine: dict[str, Any] | None = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def row(self, name: str) -> ScenarioResult:
        """The result of the scenario called ``name``."""
        for result in self.results:
            if result.name == name:
                return result
        raise BenchError(f"bench {self.name!r} has no scenario {name!r}")

    def select(self, **params: Any) -> list[ScenarioResult]:
        """Results whose params match every given key=value filter."""
        return [
            result
            for result in self.results
            if all(result.params.get(k) == v for k, v in params.items())
        ]

    def one(self, **params: Any) -> ScenarioResult:
        """The single result matching the filter (raises otherwise)."""
        matches = self.select(**params)
        if len(matches) != 1:
            raise BenchError(
                f"bench {self.name!r}: {params!r} matched {len(matches)} "
                f"scenarios, expected exactly 1"
            )
        return matches[0]

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "bench": self.name,
            "scenarios": [dataclasses.asdict(result) for result in self.results],
        }
        if self.engine is not None:
            payload["engine"] = self.engine
        return payload

    def table(self, *metrics: str) -> str:
        """Render (selected or all) metrics as an aligned text table."""
        if not self.results:
            return f"{self.name}: no scenarios"
        names = list(metrics) if metrics else sorted(
            {key for result in self.results for key in result.metrics}
        )
        header = ["scenario"] + names + ["wall(s)"]
        rows = [header]
        for result in self.results:
            rows.append(
                [result.name]
                + [_fmt(result.metrics.get(metric)) for metric in names]
                + [f"{result.wall_seconds:.2f}"]
            )
        return "\n".join(aligned(rows, str.rjust))


def aligned(rows: list[list[str]], pad=str.ljust) -> list[str]:
    """``rows`` of cells as text lines, each column padded to its widest cell."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(pad(cell, width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def assemble_report(
    name: str,
    scenarios: Iterable[Scenario],
    outcomes: Iterable[tuple[Any, ...]],
) -> BenchReport:
    """Collect measured outcomes into a report, one per scenario.

    Each outcome is ``(metrics, wall_seconds)`` or ``(metrics,
    wall_seconds, cpu_seconds)``.  Every report is built here — by
    :func:`repro.exec.evaluate` for the cells it computed or served from
    the cache, and by callers that fold several evaluations into one row
    (the severity frontier) — so the metric-mapping check exists once.
    """
    results = []
    for scenario, outcome in zip(scenarios, outcomes):
        metrics = outcome[0]
        if not isinstance(metrics, Mapping):
            raise BenchError(
                f"bench {name!r} scenario {scenario.name!r}: measurement "
                f"returned {type(metrics).__name__}, expected a metric mapping"
            )
        results.append(
            ScenarioResult(
                scenario.name,
                dict(scenario.params),
                dict(metrics),
                outcome[1],
                outcome[2] if len(outcome) > 2 else None,
            )
        )
    return BenchReport(name, results)
