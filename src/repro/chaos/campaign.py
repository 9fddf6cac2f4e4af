"""The audit campaign: sweep (app x strategy x schedule x seeds), judge.

Each campaign cell runs one app under one coordination strategy and one
fault schedule, for several network seeds of the *same* workload.  The
:mod:`~repro.chaos.oracle` classifies the observed runs into the Figure 8
lattice and the cell's verdict joins that against the label predicted by
:func:`repro.core.analysis.analyze`:

    sound  <=>  observed severity <= predicted severity

A sound campaign is the empirical side of the paper's Section VII story:
coordinated deployments never exhibit anomalies beyond their label, and
the uncoordinated ones demonstrably do exhibit theirs (``Run`` for the
unsealed word count, ``Inst``/``Diverge`` for the replicated apps).

Results flow through :mod:`repro.bench`, so ``blazes audit`` and
``benchmarks/bench_fig14_fault_audit.py`` get the standard scenario
table and ``BENCH_<name>.json`` record for free.

Every sweep over audit cells — this audit, the Figure 6 matrix, and the
search and frontier of :mod:`repro.chaos.search` — is a :class:`Sweep`:
a cell generator plus its reducer, driven by one loop (:meth:`Sweep.run`)
through the evaluation engine (:func:`repro.exec.evaluate`).  Cells share
nothing, so ``jobs > 1`` (``--jobs N`` / ``BLAZES_JOBS``) fans them out
over the process-wide warm worker pool, and a
:class:`~repro.exec.cache.CellCache` serves previously computed cells by
content address.  Results are identical to a serial uncached run.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from collections.abc import Sequence
from typing import ClassVar

from repro.bench import BenchReport, Scenario
from repro.bench.runner import aligned
from repro.chaos.envelope import cell_status
from repro.chaos.harnesses import AppHarness, audit_apps, harness_for
from repro.chaos.oracle import ObservedLabel, classify_runs
from repro.chaos.schedule import FaultSchedule, schedule_from_dict
from repro.errors import BlazesError

# repro.exec is imported where it is used: every app module imports this
# package for its envelope, and a plain ``blazes run`` should not pay for
# multiprocessing and concurrent.futures (~30 ms) it never touches

__all__ = [
    "DEFAULT_SEEDS",
    "DEFAULT_SMOKE_SEEDS",
    "AuditSweep",
    "MatrixSweep",
    "Sweep",
    "audit_campaign",
    "audit_cell",
    "audit_to_dict",
    "campaign_is_sound",
    "campaign_tightness",
    "demonstrated_anomalies",
    "matrix_apps",
    "matrix_campaign",
    "matrix_is_expected",
    "matrix_summary",
    "matrix_to_dict",
    "out_of_envelope_cells",
    "render_audit",
    "render_matrix",
    "schedule_cell_name",
]

DEFAULT_SEEDS = (7, 11, 13)
DEFAULT_SMOKE_SEEDS = (7, 11)

# A cell is empirically *consistent* when its worst observation stays at
# or below Async — the paper's "correct without (further) coordination"
# judgment, orthogonal to soundness (observed <= predicted).
_CONSISTENT_SEVERITY = ObservedLabel.ASYNC.severity


def _cell_schedule(
    harness: AppHarness, schedule: str, schedule_spec: dict | None
) -> FaultSchedule:
    """The schedule a cell's params denote: the inline spec when the cell
    carries one, else the app's default schedule of that name."""
    if schedule_spec is not None:
        return schedule_from_dict(schedule_spec)
    return harness.schedule_named(schedule)


def _cell_metrics(
    *,
    app: str,
    strategy: str,
    schedule: str,
    smoke: bool,
    seeds: list,
    app_module: str | None = None,
    backend: str = "sim",
    timeout: float | None = None,
    schedule_spec: dict | None = None,
) -> dict:
    """Run one campaign cell (app x strategy x schedule, all seeds).

    Module-level (rather than a closure) so a process pool can ship it by
    name: cells share no state beyond their parameters.  ``app_module`` is
    the module whose import registers the app — a fresh pool worker only
    auto-imports the built-in catalog, so apps registered elsewhere ship
    their defining module by name.

    ``schedule_spec`` carries an *inline* schedule as the JSON-able
    mapping of :func:`repro.chaos.schedule.schedule_to_dict` — the search
    layer's composite/shrunk schedules, or a profile schedule whose name
    collides with a different one.  Without it, ``schedule`` names one of
    the app's default schedules.
    """
    if app_module is not None:
        importlib.import_module(app_module)
    from repro.obs.coordcost import aggregate_coordcost

    harness = harness_for(app, smoke=smoke, backend=backend, timeout=timeout)
    sched = _cell_schedule(harness, schedule, schedule_spec)
    # envelope check in normalized time, before horizon scaling — the
    # convention the envelope's crash-restart deadline is declared in
    violations = (
        harness.envelope.violations(sched)
        if harness.envelope is not None
        else ()
    )
    observations = []
    costs = []
    events = 0
    for seed in seeds:
        observation, outcome = harness.observe_outcome(strategy, sched, seed)
        observations.append(observation)
        costs.append(outcome.metrics.get("coordcost"))
        events += outcome.cluster.sim.fired
        # all this cell wants of the run is read: release it now, so it is
        # freed by reference counting, not left to the cyclic collector
        outcome.cluster.network.close()
    verdict = classify_runs(observations)
    predicted = harness.predicted(strategy)
    coordcost = aggregate_coordcost(costs)
    sound = verdict.sound_for(predicted)
    return {
        "coordcost": coordcost,
        "predicted": str(predicted),
        "predicted_severity": predicted.severity,
        "observed": str(verdict.observed),
        "observed_severity": verdict.observed.severity,
        "sound": sound,
        # the three-way taxonomy: sound / unsound applies only to cells
        # inside the app's declared fault envelope
        "status": cell_status(sound, violations),
        "in_envelope": not violations,
        "envelope_violations": list(violations),
        # tightness: the label was *attained*, not merely an upper bound
        "tight": verdict.observed.severity == predicted.severity,
        "consistent": verdict.observed.severity <= _CONSISTENT_SEVERITY,
        "coordinated": strategy in harness.coordinated,
        "runs": len(observations),
        # total simulated events fired across the cell's runs: the engine
        # block totals them
        "events": events,
        "evidence": list(verdict.evidence),
    }


def _cell_cache_fields(scenario: Scenario) -> dict | None:
    """The content-address fields of one audit cell.

    The schedule enters as the digest of its *compiled* (horizon-scaled)
    faults, and the harness's runner kwargs (its run params, the workload
    seed among them) as their own digest — so renaming a schedule does
    not invalidate the cache, while changing any fault timing, the
    horizon, or the workload does.  Inline (searched/composite) schedules digest identically to
    library ones with the same faults, so shrink steps that revisit a
    schedule — or rediscover a library schedule — hit the same entries.

    A cell of an app registered outside ``repro`` has none (it is computed,
    never stored): the key's source digest covers only ``repro``, so an
    edit to that app's code would be served its old verdict.
    """
    from repro.exec.cache import kwargs_digest, schedule_digest

    params = scenario.params
    harness = harness_for(params["app"], smoke=params["smoke"])
    if not (harness.app.origin_module or "").startswith("repro."):
        return None
    sched = _cell_schedule(harness, params["schedule"], params.get("schedule_spec"))
    return {
        "kind": "audit-cell",
        "app": params["app"],
        "strategy": params["strategy"],
        "schedule": schedule_digest(sched.scaled(harness.horizon)),
        "horizon": harness.horizon,
        "smoke": params["smoke"],
        "seeds": list(params["seeds"]),
        "runner": kwargs_digest(harness.profile.run_params(params["smoke"])),
        "backend": params.get("backend", "sim"),
    }


def schedule_cell_name(app: str, strategy: str, schedule: FaultSchedule) -> str:
    """A collision-proof scenario name for one (app, strategy, schedule).

    Composite schedules inherit their parts' names (``A+B``), so two
    *distinct* schedules can share one — e.g. different shrink steps of
    the same composite.  Suffixing the compiled schedule digest keeps
    ``BENCH_*.json`` rows and report lookups unique without renaming.
    """
    from repro.exec.cache import schedule_digest

    return f"{app}/{strategy}/{schedule.name}#{schedule_digest(schedule)[:8]}"


def audit_cell(
    harness: AppHarness,
    strategy: str,
    schedule: FaultSchedule,
    *,
    seeds: Sequence[int],
    inline: bool,
    backend: str = "sim",
    timeout: float | None = None,
) -> Scenario:
    """The one constructor of an audit cell: what :func:`_cell_metrics`
    runs and :func:`_cell_cache_fields` addresses.

    ``inline`` cells carry their schedule by value and go by a
    digest-suffixed name — searched, shrunk and composite schedules, or
    a default schedule whose name another one shares; the rest name one
    of the app's default schedules.
    """
    app = harness.name
    params = {
        "app": app,
        "strategy": strategy,
        "schedule": schedule.name,
        "smoke": harness.smoke,
        "seeds": list(seeds),
        "app_module": harness.app.origin_module,
        "backend": backend,
        "timeout": timeout,
    }
    if not inline:
        return Scenario(f"{app}/{strategy}/{schedule.name}", params)
    params["schedule_spec"] = schedule.to_dict()
    return Scenario(schedule_cell_name(app, strategy, schedule), params)


def campaign_is_sound(report: BenchReport) -> bool:
    """Did every *in-envelope* cell observe within its predicted label?

    Out-of-envelope cells carry no verdict on the analysis — the app
    never claimed to tolerate their schedule — so they are excluded
    here, never counted as unsound.
    """
    return all(result["status"] != "unsound" for result in report)


def out_of_envelope_cells(report: BenchReport) -> dict[str, list[str]]:
    """Cells whose schedule fell outside the app's declared envelope,
    mapped to the envelope checker's violation lines."""
    return {
        result.name: list(result.metrics.get("envelope_violations", ()))
        for result in report
        if result["status"] == "out-of-envelope"
    }


def campaign_tightness(report: BenchReport) -> tuple[int, int]:
    """``(tight_cells, total_cells)``: how often observed == predicted.

    Soundness only bounds observations from above; tightness measures how
    often the campaign actually *attained* the predicted severity, i.e.
    how far the labels are from being vacuously sound over-predictions.
    """
    tight = sum(1 for result in report if result["tight"])
    return tight, len(report)


def audit_to_dict(report: BenchReport) -> dict:
    """Serialize an audit campaign report as a JSON-able mapping.

    The payload ``blazes audit --json`` prints: every cell's
    predicted/observed labels, soundness, and *tightness* (observed ==
    predicted, not merely <=), the campaign-level summary, and the
    engine's accounting when the report carries it.
    """
    tight, total = campaign_tightness(report)
    outside = out_of_envelope_cells(report)
    payload = {
        "campaign": report.name,
        "cells": [
            {
                "name": result.name,
                "params": dict(result.params),
                "predicted": result["predicted"],
                "observed": result["observed"],
                "sound": result["sound"],
                # three-way status: out-of-envelope cells are neither
                # sound nor unsound — the app never claimed their faults
                "status": result["status"],
                "envelope_violations": list(
                    result.metrics.get("envelope_violations", ())
                ),
                "tight": result["tight"],
                "coordinated": result["coordinated"],
                "evidence": list(result["evidence"]),
            }
            for result in report
        ],
        "summary": {
            "cells": len(report),
            "sound": campaign_is_sound(report),
            "unsound_cells": sum(
                1 for result in report if result["status"] == "unsound"
            ),
            "out_of_envelope": len(outside),
            "tight_cells": tight,
            "tightness": (tight / total) if total else 1.0,
            "anomalies": demonstrated_anomalies(report),
        },
    }
    if report.engine is not None:
        payload["engine"] = report.engine
    return payload


# ----------------------------------------------------------------------
# the Figure 6 query matrix
# ----------------------------------------------------------------------
def matrix_apps() -> tuple[str, ...]:
    """The registered query apps the Figure 6 matrix sweeps."""
    from repro.apps.queries import QUERY_MATRIX_APPS

    return tuple(QUERY_MATRIX_APPS)


def matrix_summary(report: BenchReport) -> dict[tuple[str, str], dict]:
    """Fold a report's matrix cells into per-(query, strategy) verdicts.

    Any report that contains the query-app cells works (the full audit
    sweeps them too).  Each entry aggregates over that pair's schedules
    and seeds: the worst observed label, the predicted label, soundness
    (all cells), consistency (worst observed <= Async), and tightness.
    """
    from repro.apps.queries import QUERY_MATRIX_APPS

    summary: dict[tuple[str, str], dict] = {}
    for result in report:
        app = result.params.get("app")
        if app not in QUERY_MATRIX_APPS:
            continue
        key = (QUERY_MATRIX_APPS[app], result.params["strategy"])
        cell = summary.setdefault(
            key,
            {
                "observed": result["observed"],
                "observed_severity": 0,
                "predicted": result["predicted"],
                "sound": True,
                "tight_cells": 0,
                "cells": 0,
            },
        )
        if result["observed_severity"] > cell["observed_severity"]:
            cell["observed_severity"] = result["observed_severity"]
            cell["observed"] = result["observed"]
        cell["sound"] = cell["sound"] and result["sound"]
        cell["tight_cells"] += 1 if result["tight"] else 0
        cell["cells"] += 1
    for cell in summary.values():
        cell["consistent"] = cell["observed_severity"] <= _CONSISTENT_SEVERITY
    return summary


def matrix_is_expected(report: BenchReport) -> bool:
    """Does the observed matrix reproduce the paper's Figure 6 claims?

    * every cell is sound (observed <= predicted);
    * THRESH, the confluent query, is consistent even uncoordinated;
    * POOR / WINDOW / CAMPAIGN are *inconsistent* uncoordinated (the
      anomaly is demonstrated, not merely predicted) and consistent under
      both the seal and the ordering strategy.
    """
    from repro.apps.queries import MATRIX_STRATEGIES, QUERY_MATRIX_APPS

    summary = matrix_summary(report)
    queries = set(QUERY_MATRIX_APPS.values())
    expected_keys = {(q, s) for q in queries for s in MATRIX_STRATEGIES}
    if not expected_keys <= set(summary):
        return False
    for (query, strategy), cell in summary.items():
        if not cell["sound"]:
            return False
        if strategy == "uncoordinated":
            if cell["consistent"] != (query == "THRESH"):
                return False
        elif not cell["consistent"]:
            return False
    return True


def matrix_to_dict(report: BenchReport) -> dict:
    """:func:`audit_to_dict` plus the Figure 6 verdict in its summary
    (what ``blazes audit --matrix --json`` prints)."""
    payload = audit_to_dict(report)
    payload["summary"]["matrix_expected"] = matrix_is_expected(report)
    return payload


def render_matrix(report: BenchReport) -> str:
    """The Figure 6 grid: worst observed label per (query, strategy)."""
    from repro.apps.queries import MATRIX_STRATEGIES, QUERY_NAMES

    summary = matrix_summary(report)
    if not summary:
        return "no query-matrix cells in this report"
    lines = [
        "Figure 6 — observed coordination requirements "
        "(worst over schedules x seeds; * = anomaly beyond Async)"
    ]
    rows = [["query", *MATRIX_STRATEGIES]]
    for query in QUERY_NAMES:
        row = [query]
        for strategy in MATRIX_STRATEGIES:
            cell = summary.get((query, strategy))
            if cell is None:
                row.append("-")
                continue
            marker = "" if cell["consistent"] else " *"
            row.append(f"{cell['observed']}{marker}")
        rows.append(row)
    lines.extend(aligned(rows))
    verdict = (
        "matrix matches Figure 6: THRESH sound uncoordinated; the "
        "non-confluent queries need (and suffice with) sealing or ordering"
        if matrix_is_expected(report)
        else "MATRIX DEVIATES from the Figure 6 expectation"
    )
    lines.append(verdict)
    return "\n".join(lines)


def demonstrated_anomalies(report: BenchReport) -> dict[str, str]:
    """Uncoordinated cells that empirically exhibited ``Run`` or worse.

    This is the completeness half of the audit: the labels are not vacuous
    — remove the coordination and the predicted anomalies actually occur.
    """
    return {
        result.name: result["observed"]
        for result in report
        if not result["coordinated"]
        and result["observed_severity"] >= ObservedLabel.RUN.severity
    }


def render_audit(report: BenchReport, *, evidence: bool = False) -> str:
    """The human-readable audit verdict: table plus summary lines."""
    lines = [report.table("predicted", "observed", "sound", "tight")]
    anomalies = demonstrated_anomalies(report)
    unsound = [
        result.name for result in report if result["status"] == "unsound"
    ]
    outside = out_of_envelope_cells(report)
    lines.append("")
    if unsound:
        lines.append(f"UNSOUND cells ({len(unsound)}): " + ", ".join(unsound))
    else:
        lines.append(
            f"sound: all {len(report) - len(outside)} in-envelope cells "
            f"observed <= predicted (Figure 8)"
            if outside
            else f"sound: all {len(report)} cells observed <= predicted "
            f"(Figure 8)"
        )
    if outside:
        lines.append(
            f"out-of-envelope cells ({len(outside)}, no verdict): "
            + ", ".join(sorted(outside))
        )
    tight, total = campaign_tightness(report)
    lines.append(
        f"tightness: {tight}/{total} cells attained their predicted label"
    )
    if anomalies:
        rendered = ", ".join(f"{k} -> {v}" for k, v in sorted(anomalies.items()))
        lines.append(f"anomalies demonstrated without coordination: {rendered}")
    else:
        lines.append("anomalies demonstrated without coordination: none")
    if evidence:
        for result in report:
            if result["evidence"]:
                lines.append("")
                lines.append(f"{result.name}:")
                lines.extend(f"  {item}" for item in result["evidence"])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the sweeps: cell generators over the one engine loop
# ----------------------------------------------------------------------
@dataclasses.dataclass(kw_only=True)
class Sweep:
    """One sweep over audit cells: a cell generator plus its reducer.

    ``cells()`` yields batches of :func:`audit_cell` scenarios and receives
    each batch's results, in input order, at the ``yield``.  ``reduce(found,
    reports, engine)`` turns what it returned, the batches' reports and
    the fold of their engine blocks into the sweep's value, which carries
    that fold as its ``engine`` — what its campaign function returns, and
    what ``payload`` (``--json``), ``sound`` (the verdict), ``render`` (the
    console text) and ``record`` (the ``BENCH_<name>.json`` report) read.
    ``seeds`` (distinct) and ``name`` default per tier (smoke: two seeds, a
    ``<kind>-smoke`` record); ``apps`` to every app with an audit profile.
    """

    kind: ClassVar[str]
    cacheable: ClassVar[bool] = True
    apps: Sequence[str] | None = None
    smoke: bool = False
    seeds: Sequence[int] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        self.seeds = tuple(self.seeds or (DEFAULT_SMOKE_SEEDS if self.smoke else DEFAULT_SEEDS))
        if len(set(self.seeds)) < len(self.seeds):
            raise BlazesError(f"seeds must be distinct, got {' '.join(map(str, self.seeds))}")
        self.name = self.name or (f"{self.kind}-smoke" if self.smoke else self.kind)
        self.apps = tuple(audit_apps() if self.apps is None else self.apps)

    def run(self, *, jobs: int = 1, cache=None, reporter=None):
        """The one loop over audit cells: each batch is deduplicated by cell
        name, evaluated through the engine and fanned back out in input
        order; the sweep is one engine run, the fold of its batches.  An
        empty first batch is an error: nothing is not sound."""
        from repro.exec.engine import evaluate, fold

        cache = cache if self.cacheable else None
        cells, reports, results = self.cells(), [], None
        try:
            while True:
                batch = cells.send(results)
                if not (batch or reports):
                    raise BlazesError(
                        f"the {self.kind} selected no cells: nothing to give a verdict on"
                    )
                unique = {cell.name: cell for cell in batch}
                report = evaluate(
                    self.name, unique.values(), _cell_metrics,
                    jobs=jobs, cache=cache, cache_fields=_cell_cache_fields,
                )
                reports.append(report)
                by_name = {result.name: result for result in report}
                results = [by_name[cell.name] for cell in batch]
        except StopIteration as stop:
            found = stop.value
        engine = fold([report.engine for report in reports])
        value = self.reduce(found, reports, engine)
        if reporter is not None:
            reporter.write(self.record(value, reports))
        return value

    def record(self, value, reports: list[BenchReport]) -> BenchReport:
        return value

    def render(self, value) -> str:
        from repro.obs.render import engine_line

        engine = value["engine"] if isinstance(value, dict) else value.engine
        return f"{self.text(value)}\n\n{engine_line(engine)}"


@dataclasses.dataclass(kw_only=True)
class AuditSweep(Sweep):
    """The audit: every app x strategy x default schedule, in one batch.

    ``schedules`` restricts every app to the named subset of its default
    schedules (a name *no* swept app has is an error).  Socket cells
    (``backend="socket"``, each run bounded by ``timeout`` seconds) are
    wall-clock nondeterministic: they bypass the cell cache, and the
    default record name gains ``-socket``.  ``evidence`` adds the
    oracle's evidence to the console text.
    """

    kind = "audit"
    schedules: Sequence[str] | None = None
    backend: str | None = None
    timeout: float | None = None
    evidence: bool = False
    payload = staticmethod(audit_to_dict)
    sound = staticmethod(campaign_is_sound)

    def __post_init__(self) -> None:
        from repro.net.context import net_config

        named = self.name is not None
        super().__post_init__()
        # a bad backend, timeout or BLAZES_NET_* setting fails here
        socket = net_config(self.backend, self.timeout) is not None
        self.backend = "socket" if socket else "sim"
        if socket:
            self.cacheable = False
            if not named:
                self.name += "-socket"

    def cells(self):
        harnesses = [harness_for(app, smoke=self.smoke) for app in self.apps]
        if self.schedules is not None:
            known = {s.name for harness in harnesses for s in harness.schedules}
            unknown = sorted(set(self.schedules) - known)
            if unknown:
                raise BlazesError(
                    f"unknown schedule(s) {', '.join(unknown)}; "
                    f"the swept apps have: {', '.join(sorted(known))}"
                )
        scenarios: list[Scenario] = []
        for harness in harnesses:
            swept = [
                schedule for schedule in harness.schedules
                if self.schedules is None or schedule.name in self.schedules
            ]
            # two distinct schedules sharing a name (composites built from
            # same-named parts) would collide in report rows and schedule
            # resolution: such cells go by digest-suffixed names and carry
            # their schedule inline
            counts = Counter(schedule.name for schedule in swept)
            scenarios += [
                audit_cell(
                    harness, strategy, schedule, seeds=self.seeds,
                    inline=counts[schedule.name] > 1,
                    backend=self.backend, timeout=self.timeout,
                )
                for strategy in harness.strategies
                for schedule in swept
            ]
        yield scenarios

    def reduce(self, found, reports, engine) -> BenchReport:
        (report,) = reports
        report.engine = engine
        return report

    def text(self, report: BenchReport) -> str:
        return render_audit(report, evidence=self.evidence)


def audit_campaign(
    apps: Sequence[str] | None = None,
    *,
    smoke: bool = False,
    seeds: Sequence[int] | None = None,
    schedules: Sequence[str] | None = None,
    name: str | None = None,
    reporter=None,
    jobs: int = 1,
    cache=None,
    backend: str | None = None,
) -> BenchReport:
    """Run the :class:`AuditSweep`: one report row per cell, carrying the
    predicted and observed labels, their severities, the soundness verdict
    and the oracle's evidence, plus the engine's accounting block."""
    return AuditSweep(
        apps=apps, smoke=smoke, seeds=seeds, schedules=schedules, name=name, backend=backend,
    ).run(jobs=jobs, cache=cache, reporter=reporter)


@dataclasses.dataclass(kw_only=True)
class MatrixSweep(AuditSweep):
    """Every Figure 6 query app through the fault audit: ordinary audit
    cells — (query app) x {uncoordinated, sealed, ordered} x {baseline,
    reorder, dup, crash} x seeds — whose report :func:`matrix_summary`
    folds into the paper's per-query coordination-requirement matrix; the
    verdict is :func:`matrix_is_expected`."""

    kind = "fig6-matrix"
    payload = staticmethod(matrix_to_dict)
    sound = staticmethod(matrix_is_expected)

    def __post_init__(self) -> None:
        self.apps = matrix_apps()
        super().__post_init__()

    def text(self, report: BenchReport) -> str:
        return f"{render_matrix(report)}\n\n{super().text(report)}"


def matrix_campaign(
    *, smoke: bool = False, jobs: int = 1, cache=None, reporter=None
) -> BenchReport:
    """Run the :class:`MatrixSweep` and return its audit report."""
    return MatrixSweep(smoke=smoke).run(jobs=jobs, cache=cache, reporter=reporter)
