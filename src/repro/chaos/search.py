"""Adaptive chaos search: generate, shrink, and map fault schedules.

The campaign of :mod:`repro.chaos.campaign` *sweeps* a fixed schedule
grid; this module turns the audit into a *search*, in the
property-based-testing tradition:

* :func:`composite_schedules` — a seeded generator composing the DSL
  primitives into random composite schedules (a crash *during* a reorder
  burst, loss overlapping a partition) drawn from inside the app's
  declared :class:`~repro.chaos.envelope.FaultEnvelope`, so every
  counterexample found is one the analysis must answer for;
* :func:`shrink_schedule` — a delta-debugging shrinker that removes
  faults and bisects windows/intensities downward until the schedule is
  **1-minimal**: dropping any remaining fault loses the anomaly;
* :func:`search_campaign` — candidate sweep + shrink per anomalous cell,
  every evaluation routed through the warm-pool engine so shrink steps
  run in parallel and repeat visits hit the content-addressed cache;
* :func:`frontier_campaign` — the severity-frontier mode: bisect a
  schedule's intensity (:meth:`FaultSchedule.with_intensity`) per
  app x strategy to the smallest intensity where the guarantee degrades
  beyond Async, emitted as ``BENCH_frontier.json`` via :mod:`repro.bench`.

Every schedule evaluation is an ordinary audit cell
(:func:`repro.chaos.campaign.audit_cell`): same oracle, same seeds,
same cache key schema — a searched schedule that matches a library one
byte-for-byte shares its cache entry.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Sequence

from repro.bench import BenchReport, Scenario, assemble_report
from repro.bench.runner import aligned
from repro.chaos.campaign import (
    _CONSISTENT_SEVERITY,
    audit_cell,
    evaluate_cells,
    sweep_defaults,
)
from repro.chaos.envelope import FAULT_KINDS
from repro.chaos.harnesses import audit_apps, harness_for
from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
)
from repro.errors import SimulationError

__all__ = [
    "CellProbe",
    "ShrinkOutcome",
    "composite_schedule",
    "composite_schedules",
    "frontier_campaign",
    "render_frontier",
    "render_search",
    "search_campaign",
    "search_is_sound",
    "shrink_schedule",
]

# window-perturbing kinds that anchor a composite: other faults are
# placed to overlap the carrier's window
_CARRIER_KINDS = ("reorder", "loss", "duplicate")


# ----------------------------------------------------------------------
# the engine-backed probe: arbitrary schedules as ordinary audit cells
# ----------------------------------------------------------------------
class CellProbe:
    """Evaluate ad-hoc (app, strategy, schedule) cells through the engine.

    Each :meth:`results` call is one :func:`repro.exec.evaluate` batch:
    pending cells fan out over the warm worker pool (``jobs``) and
    previously seen schedules — within this probe, across shrink steps,
    or from any earlier audit — come back from the content-addressed
    cache.  The probe accumulates the engine accounting across batches,
    so callers can surface the searched-cell cache hit rate.
    """

    def __init__(
        self,
        *,
        smoke: bool,
        seeds: Sequence[int],
        jobs: int = 1,
        cache=None,
        label: str = "search",
    ) -> None:
        self.smoke = smoke
        self.seeds = list(seeds)
        self.jobs = jobs
        self.cache = cache
        self.label = label
        self.batches = 0
        self.totals = {
            "cells": 0,
            "computed": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "wall_seconds": 0.0,
        }
        self._harnesses: dict[str, object] = {}

    def harness(self, app: str):
        if app not in self._harnesses:
            self._harnesses[app] = harness_for(app, smoke=self.smoke)
        return self._harnesses[app]

    def results(
        self,
        cells: Sequence[tuple[str, str, FaultSchedule]],
        *,
        reporter=None,
    ) -> list:
        """One engine batch over ``cells``; returns per-cell
        :class:`~repro.bench.ScenarioResult` in input order.

        Cells with identical content (same digest-suffixed name) are
        evaluated once and fanned back out.
        """
        scenarios = [
            audit_cell(
                self.harness(app), strategy, schedule, seeds=self.seeds, inline=True
            )
            for app, strategy, schedule in cells
        ]
        unique: dict[str, Scenario] = {}
        for scenario in scenarios:
            unique.setdefault(scenario.name, scenario)
        report = evaluate_cells(
            self.label,
            list(unique.values()),
            jobs=self.jobs,
            cache=self.cache,
            reporter=reporter,
        )
        self.batches += 1
        engine = report.engine or {}
        for key in ("cells", "computed", "cache_hits", "cache_misses"):
            self.totals[key] += engine.get(key, 0)
        self.totals["wall_seconds"] += engine.get("wall_seconds", 0.0)
        by_name = {result.name: result for result in report}
        return [by_name[scenario.name] for scenario in scenarios]

    def summary(self) -> dict:
        """The accumulated engine accounting, plus the cache hit rate."""
        cells = self.totals["cells"]
        return {
            **self.totals,
            "batches": self.batches,
            "jobs": self.jobs,
            "cache_enabled": self.cache is not None,
            "hit_rate": (self.totals["cache_hits"] / cells) if cells else 0.0,
        }


# ----------------------------------------------------------------------
# the composite-schedule generator
# ----------------------------------------------------------------------
def composite_schedule(
    *,
    seed: int,
    index: int = 0,
    envelope=None,
    roles: Sequence[str] = (),
    name: str | None = None,
) -> FaultSchedule:
    """One seeded random composite schedule (normalized time).

    A window fault (reorder/loss/duplicate burst) anchors the composite
    and 1-3 further faults are placed to *overlap* its window — crash
    during a reorder burst, loss overlapping a partition — the
    interleavings a hand-written one-fault library never exercises.
    Faults are drawn from ``envelope``'s allowed kinds only (all kinds
    when ``None``), probabilities respect its ceilings, and crashes
    recover before its restart deadline; crash/partition targets come
    from ``roles`` (skipped when empty).  Generation is deterministic in
    ``(seed, index)`` across processes and platforms.
    """
    rng = random.Random(f"blazes-search/{seed}/{index}")
    allowed = set(envelope.faults) if envelope is not None else set(FAULT_KINDS)
    role_pool = tuple(roles)
    if not role_pool:
        allowed -= {"crash", "partition"}
    if not allowed:
        raise SimulationError(
            "envelope admits no generatable fault kinds "
            f"(allowed={sorted(envelope.faults) if envelope else []}, "
            f"roles={list(role_pool)})"
        )
    max_loss = envelope.max_loss_prob if envelope is not None else 1.0
    max_dup = envelope.max_dup_prob if envelope is not None else 1.0
    restart_by = 1.0
    if envelope is not None and envelope.crash_restart_by is not None:
        restart_by = envelope.crash_restart_by

    def make(kind: str, at: float, duration: float):
        if kind == "reorder":
            return Reorder(at, duration, round(rng.uniform(2.0, 12.0), 1))
        if kind == "loss":
            return Loss(at, duration, round(rng.uniform(0.1, min(0.6, max_loss)), 2))
        if kind == "duplicate":
            return Duplicate(
                at, duration, round(rng.uniform(0.1, min(0.7, max_dup)), 2)
            )
        if kind == "crash":
            role = rng.choice(role_pool)
            duration = min(duration, max(restart_by - at - 0.01, 0.02))
            return Crash(role, rng.randrange(2), at, round(duration, 3))
        src = rng.choice(role_pool)
        dst = rng.choice(role_pool)
        src_index = rng.randrange(2)
        dst_index = src_index + 1 if src == dst else rng.randrange(2)
        return Partition(src, src_index, dst, dst_index, at, duration)

    carriers = [kind for kind in _CARRIER_KINDS if kind in allowed]
    carrier_kind = rng.choice(carriers or sorted(allowed))
    at = round(rng.uniform(0.02, 0.3), 3)
    duration = round(rng.uniform(0.25, 0.6), 3)
    faults = [make(carrier_kind, at, duration)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(sorted(allowed))
        extra_at = round(rng.uniform(at, at + duration * 0.8), 3)
        extra_duration = round(rng.uniform(0.05, duration), 3)
        faults.append(make(kind, extra_at, extra_duration))
    return FaultSchedule(name or f"x{seed}.{index}", tuple(faults))


def composite_schedules(
    count: int,
    *,
    seed: int = 0,
    envelope=None,
    roles: Sequence[str] = (),
) -> tuple[FaultSchedule, ...]:
    """``count`` deterministic composites for one (seed, envelope, roles)."""
    return tuple(
        composite_schedule(seed=seed, index=index, envelope=envelope, roles=roles)
        for index in range(count)
    )


# ----------------------------------------------------------------------
# the delta-debugging shrinker
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ShrinkOutcome:
    """The result of one shrink: the minimal schedule plus accounting.

    ``one_minimal`` certifies that a *complete* removal pass ran last and
    no single-fault removal still reproduced — dropping any remaining
    fault loses the anomaly.  It is ``False`` when the trial ``budget``
    ran out first (``exhausted``).
    """

    schedule: FaultSchedule
    trials: int
    removed: int
    one_minimal: bool
    exhausted: bool


def shrink_schedule(
    schedule: FaultSchedule,
    reproduces: Callable[[FaultSchedule], bool],
    *,
    budget: int = 64,
    bisect_steps: int = 3,
    reproduces_many: Callable[[Sequence[FaultSchedule]], Sequence[bool]]
    | None = None,
) -> ShrinkOutcome:
    """Shrink ``schedule`` to a minimal one still satisfying ``reproduces``.

    The caller guarantees ``reproduces(schedule)`` is already true.  The
    shrinker then alternates two monotone phases:

    1. **removal fixpoint** (delta debugging): repeatedly drop any single
       fault whose removal keeps the predicate true, until a full pass
       removes nothing — the schedule is 1-minimal under removal;
    2. **bisection**: per remaining fault, repeatedly halve its duration
       and its intensity (drop/dup probability, reorder jitter toward
       the neutral 1) while the predicate holds — windows and
       intensities only ever shrink, ``at`` never moves;

    then re-runs the removal fixpoint, since a weakened fault may have
    become removable.  Every shrunk fault therefore descends from one
    original fault (same kind, same target, same ``at``, no larger
    window, no larger intensity) and the final schedule is a sub-multiset
    of such descendants.

    ``budget`` softly caps issued predicate evaluations: a phase checks
    the cap before each batch, so the count may overshoot by one batch.
    ``reproduces_many`` optionally evaluates a candidate batch at once —
    the engine-backed probes fan removal passes over the worker pool;
    semantics match mapping ``reproduces`` (the pass takes the first
    reproducing candidate in order).
    """
    if reproduces_many is None:
        reproduces_many = lambda batch: [reproduces(c) for c in batch]  # noqa: E731
    state = {"trials": 0, "exhausted": False}

    def check_many(batch: Sequence[FaultSchedule]):
        if state["trials"] >= budget:
            state["exhausted"] = True
            return None
        state["trials"] += len(batch)
        return list(reproduces_many(batch))

    def check(candidate: FaultSchedule) -> bool:
        verdicts = check_many([candidate])
        return bool(verdicts and verdicts[0])

    def removal_fixpoint(sched: FaultSchedule) -> tuple[FaultSchedule, bool]:
        """Drop removable faults until a full pass removes none.

        Returns ``(schedule, complete)``; ``complete`` is False when the
        budget cut a pass short (no 1-minimality claim).
        """
        while sched.faults:
            candidates = [
                FaultSchedule(
                    sched.name, sched.faults[:i] + sched.faults[i + 1 :]
                )
                for i in range(len(sched.faults))
            ]
            verdicts = check_many(candidates)
            if verdicts is None:
                return sched, False
            for candidate, ok in zip(candidates, verdicts):
                if ok:
                    sched = candidate
                    break
            else:
                return sched, True
        return sched, True

    def halved_duration(fault):
        if fault.duration <= 0:
            return None
        return dataclasses.replace(fault, duration=fault.duration / 2)

    def halved_intensity(fault):
        # crash/partition intensity *is* their duration — already covered
        if isinstance(fault, (Crash, Partition)):
            return None
        if isinstance(fault, Reorder) and fault.factor <= 1.0:
            return None
        weakened = fault.with_intensity(0.5)
        return None if weakened == fault else weakened

    def bisect_faults(sched: FaultSchedule) -> FaultSchedule:
        for i in range(len(sched.faults)):
            for transform in (halved_duration, halved_intensity):
                for _ in range(bisect_steps):
                    weakened = transform(sched.faults[i])
                    if weakened is None:
                        break
                    candidate = FaultSchedule(
                        sched.name,
                        sched.faults[:i] + (weakened,) + sched.faults[i + 1 :],
                    )
                    if not check(candidate):
                        break
                    sched = candidate
        return sched

    current, complete = removal_fixpoint(schedule)
    if current.faults and complete:
        bisected = bisect_faults(current)
        if bisected.faults != current.faults:
            current, complete = removal_fixpoint(bisected)
        else:
            current = bisected
    return ShrinkOutcome(
        schedule=current,
        trials=state["trials"],
        removed=len(schedule.faults) - len(current.faults),
        one_minimal=complete and not state["exhausted"],
        exhausted=state["exhausted"],
    )


# ----------------------------------------------------------------------
# the search campaign: generate -> evaluate -> shrink anomalies
# ----------------------------------------------------------------------
def search_campaign(
    apps: Sequence[str] | None = None,
    *,
    smoke: bool = False,
    seeds: Sequence[int] | None = None,
    candidates: int = 4,
    budget: int = 64,
    seed: int = 0,
    jobs: int = 1,
    cache=None,
    reporter=None,
) -> dict:
    """Search for minimal anomaly-exhibiting schedules per app x strategy.

    Generates ``candidates`` composite schedules per app (inside its
    envelope), evaluates every (app, strategy, candidate) cell in one
    engine batch, then shrinks each cell whose observed label exceeds
    Async to a 1-minimal schedule still exhibiting the *same* observed
    label under the same seeds.  Returns a JSON-able payload: candidate
    cells, minimized findings, and the accumulated engine accounting
    (including the searched-cell cache hit rate).  ``reporter`` writes
    the candidate sweep as an ordinary ``BENCH_*.json``.
    """
    seeds, label = sweep_defaults("search", smoke, seeds)
    if apps is None:
        apps = audit_apps()
    probe = CellProbe(
        smoke=smoke, seeds=seeds, jobs=jobs, cache=cache, label=label
    )

    cells: list[tuple[str, str, FaultSchedule]] = []
    for app in apps:
        harness = probe.harness(app)
        generated = composite_schedules(
            candidates,
            seed=seed,
            envelope=harness.envelope,
            roles=harness.role_pool(),
        )
        cells.extend(
            (app, strategy, schedule)
            for strategy in harness.strategies
            for schedule in generated
        )

    results = probe.results(cells, reporter=reporter)
    cell_rows = []
    findings = []
    for (app, strategy, schedule), result in zip(cells, results):
        metrics = result.metrics
        cell_rows.append(
            {
                "name": result.name,
                "app": app,
                "strategy": strategy,
                "schedule": schedule.name,
                "faults": len(schedule.faults),
                "predicted": metrics["predicted"],
                "observed": metrics["observed"],
                "status": metrics["status"],
                "consistent": metrics["consistent"],
            }
        )
        anomalous = (
            metrics["observed_severity"] > _CONSISTENT_SEVERITY
            and metrics["in_envelope"]
        )
        if not anomalous:
            continue
        target = metrics["observed"]

        def reproduces_many(batch, _app=app, _strategy=strategy, _target=target):
            rows = probe.results([(_app, _strategy, s) for s in batch])
            return [row.metrics["observed"] == _target for row in rows]

        outcome = shrink_schedule(
            schedule,
            lambda s: reproduces_many([s])[0],
            budget=budget,
            reproduces_many=reproduces_many,
        )
        # explicit final verification (a cache hit): the CI gate asserts
        # every minimized schedule still reproduces its verdict
        verified = reproduces_many([outcome.schedule])[0]
        findings.append(
            {
                "cell": result.name,
                "app": app,
                "strategy": strategy,
                "schedule": schedule.name,
                "predicted": metrics["predicted"],
                "observed": target,
                "status": metrics["status"],
                "original": schedule.to_dict(),
                "original_faults": len(schedule.faults),
                "minimal": outcome.schedule.to_dict(),
                "minimal_faults": len(outcome.schedule.faults),
                "removed": outcome.removed,
                "trials": outcome.trials,
                "one_minimal": outcome.one_minimal,
                "exhausted": outcome.exhausted,
                "reproduced": verified,
                "minimal_description": outcome.schedule.describe(),
            }
        )

    return {
        "search": label,
        "apps": list(apps),
        "candidates": candidates,
        "budget": budget,
        "seed": seed,
        "seeds": list(seeds),
        "cells": cell_rows,
        "findings": findings,
        "engine": probe.summary(),
    }


def search_is_sound(payload: dict) -> bool:
    """Did no in-envelope searched cell observe beyond its prediction?"""
    return all(cell["status"] != "unsound" for cell in payload["cells"])


def render_search(payload: dict) -> str:
    """The human-readable search report."""
    engine = payload["engine"]
    lines = [
        f"chaos search: {payload['candidates']} composite schedules "
        f"(seed {payload['seed']}) x {len(payload['cells'])} cells over "
        + ", ".join(payload["apps"])
    ]
    if payload["findings"]:
        lines.append("")
        lines.append("minimized anomalies (observed beyond Async):")
        for finding in payload["findings"]:
            minimality = (
                "1-minimal"
                if finding["one_minimal"]
                else "budget-limited"
            )
            reproduced = "" if finding["reproduced"] else " UNREPRODUCED"
            lines.append(
                f"  {finding['cell']}: observed {finding['observed']} "
                f"(predicted {finding['predicted']}, {finding['status']}) — "
                f"{finding['original_faults']} -> {finding['minimal_faults']} "
                f"faults in {finding['trials']} trials, "
                f"{minimality}{reproduced}"
            )
            lines.extend(
                f"    {line}"
                for line in finding["minimal_description"].splitlines()
            )
    else:
        lines.append("no anomalies beyond Async among the searched cells")
    unsound = [c["name"] for c in payload["cells"] if c["status"] == "unsound"]
    if unsound:
        lines.append("")
        lines.append(
            f"UNSOUND searched cells ({len(unsound)}): " + ", ".join(unsound)
        )
    lines.append("")
    lines.append(
        f"search cache: {engine['cache_hits']}/{engine['cells']} cells "
        f"served from cache ({engine['hit_rate']:.0%}) across "
        f"{engine['batches']} engine batches, "
        f"{engine['wall_seconds']:.2f}s"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the severity frontier: bisect intensity per app x strategy
# ----------------------------------------------------------------------
def _frontier_base(harness) -> FaultSchedule:
    """The app's full-envelope schedule: every default fault at once."""
    faults = tuple(
        fault
        for schedule in harness.schedules
        for fault in schedule.faults
    )
    return FaultSchedule("envelope", faults)


def frontier_campaign(
    apps: Sequence[str] | None = None,
    *,
    smoke: bool = False,
    seeds: Sequence[int] | None = None,
    steps: int = 5,
    jobs: int = 1,
    cache=None,
    reporter=None,
) -> BenchReport:
    """Map, per app x strategy, the intensity where the guarantee breaks.

    Each pair's *envelope schedule* (all of the app's default faults
    composed) is evaluated at both intensity endpoints in one batch:
    intensity 0 melts to the fault-free baseline (a pair already
    inconsistent there has ``frontier`` 0 — the anomaly needs no faults
    at all), and pairs consistent at full intensity hold through the
    whole envelope and report a ``frontier`` of ``None``.  The remaining
    pairs bisect :meth:`FaultSchedule.with_intensity` over [0, 1] for
    ``steps`` rounds; ``frontier`` is the smallest intensity observed to
    degrade the guarantee.  Bisection rounds are batched across pairs,
    so the probes of every app x strategy fan out over the worker pool
    together, and the endpoint cells are shared with (cached from) any
    ordinary audit of the same apps.
    """
    seeds, name = sweep_defaults("frontier", smoke, seeds)
    if apps is None:
        apps = audit_apps()
    probe = CellProbe(
        smoke=smoke, seeds=seeds, jobs=jobs, cache=cache, label=name
    )

    pairs = []
    for app in apps:
        harness = probe.harness(app)
        base = _frontier_base(harness)
        for strategy in harness.strategies:
            pairs.append(
                {
                    "app": app,
                    "strategy": strategy,
                    "base": base,
                    "lo": 0.0,
                    "hi": 1.0,
                    "frontier": None,
                    "probes": 0,
                    "wall": 0.0,
                    "active": True,
                    "full": None,
                    "zero": None,
                }
            )

    def probe_round(entries, intensity_of):
        cells = [
            (p["app"], p["strategy"], intensity_of(p)) for p in entries
        ]
        rows = probe.results(cells)
        for pair, row in zip(entries, rows):
            pair["probes"] += 1
            pair["wall"] += row.wall_seconds
        return rows

    # round 0: both intensity endpoints for every pair, one batch — the
    # lam=0 schedule melts to the fault-free baseline
    endpoint_cells = [(p["app"], p["strategy"], p["base"]) for p in pairs] + [
        (p["app"], p["strategy"], p["base"].with_intensity(0.0)) for p in pairs
    ]
    rows = probe.results(endpoint_cells)
    for pair, full_row, zero_row in zip(pairs, rows, rows[len(pairs) :]):
        pair["probes"] += 2
        pair["wall"] += full_row.wall_seconds + zero_row.wall_seconds
        pair["full"] = full_row.metrics
        pair["zero"] = zero_row.metrics
        if not zero_row.metrics["consistent"]:
            # anomalous with no faults injected: the frontier is the floor
            pair["frontier"] = 0.0
            pair["active"] = False
        elif full_row.metrics["consistent"]:
            pair["active"] = False  # guarantee holds through the envelope

    for _ in range(steps):
        active = [p for p in pairs if p["active"]]
        if not active:
            break
        rows = probe_round(
            active,
            lambda p: p["base"].with_intensity((p["lo"] + p["hi"]) / 2),
        )
        for pair, row in zip(active, rows):
            mid = (pair["lo"] + pair["hi"]) / 2
            if row.metrics["consistent"]:
                pair["lo"] = mid
            else:
                pair["hi"] = mid
    for pair in pairs:
        if pair["active"]:
            pair["frontier"] = pair["hi"]

    scenarios = []
    outcomes = []
    for pair in pairs:
        full = pair["full"]
        scenarios.append(
            Scenario(
                f"{pair['app']}/{pair['strategy']}",
                {
                    "app": pair["app"],
                    "strategy": pair["strategy"],
                    "smoke": smoke,
                    "seeds": list(seeds),
                    "steps": steps,
                    "schedule_spec": pair["base"].to_dict(),
                },
            )
        )
        outcomes.append(
            (
                {
                    "frontier": pair["frontier"],
                    "holds": pair["frontier"] is None,
                    "probes": pair["probes"],
                    "faults": len(pair["base"].faults),
                    "predicted": full["predicted"],
                    "observed_full": full["observed"],
                    "observed_full_severity": full["observed_severity"],
                    "observed_zero": pair["zero"]["observed"],
                    "status_full": full["status"],
                    "coordinated": full["coordinated"],
                },
                pair["wall"],
            )
        )
    report = assemble_report(name, scenarios, outcomes)
    report.engine = probe.summary()
    if reporter is not None:
        reporter.write(report)
    return report


def render_frontier(report: BenchReport) -> str:
    """The frontier table: where each guarantee degrades beyond Async."""
    lines = [
        "severity frontier — smallest schedule intensity (0..1) observed "
        "to push a cell beyond Async"
    ]
    rows = [["cell", "predicted", "observed@1.0", "frontier"]]
    for result in report:
        frontier = result["frontier"]
        rows.append(
            [
                result.name,
                result["predicted"],
                result["observed_full"],
                "holds" if frontier is None else f"{frontier:g}",
            ]
        )
    lines.extend(aligned(rows))
    holding = sum(1 for result in report if result["holds"])
    lines.append(
        f"{holding}/{len(report)} cells hold their guarantee through the "
        f"full envelope intensity"
    )
    return "\n".join(lines)
