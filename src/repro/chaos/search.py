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
* :class:`SearchSweep` — candidate sweep, then
  shrink every anomalous cell, one batch per shrink step;
* :class:`FrontierSweep` (:func:`frontier_campaign`) — bisect the
  intensity (:meth:`FaultSchedule.with_intensity`) of each app's fault
  envelope, per strategy, to where the guarantee degrades beyond Async.

Both are :class:`~repro.chaos.campaign.Sweep` cell generators that adapt
to their previous batch's results, driven by the one loop over audit
cells (:func:`repro.chaos.campaign.audit_cell`): same oracle, same seeds,
same cache key schema — a searched schedule that matches a library one
byte-for-byte shares its cache entry.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Generator, Sequence

from repro.bench import BenchReport, ScenarioResult
from repro.bench.runner import aligned
from repro.chaos.campaign import _CONSISTENT_SEVERITY, Sweep, audit_cell
from repro.chaos.envelope import FAULT_KINDS
from repro.chaos.harnesses import harness_for
from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
)
from repro.errors import BlazesError, SimulationError

__all__ = [
    "FrontierSweep",
    "SearchSweep",
    "ShrinkOutcome",
    "composite_schedule",
    "composite_schedules",
    "frontier_campaign",
    "render_frontier",
    "render_search",
    "search_is_sound",
    "shrink_schedule",
]

# window-perturbing kinds that anchor a composite: other faults are
# placed to overlap the carrier's window
_CARRIER_KINDS = ("reorder", "loss", "duplicate")
# halvings the shrinker tries per fault and per transform (window, intensity)
_BISECT_STEPS = 3


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
    reproduces: Callable[[object], bool],
    *,
    budget: int = 64,
    cell: Callable[[FaultSchedule], object] = lambda schedule: schedule,
) -> Generator[list, list, ShrinkOutcome]:
    """Shrink ``schedule`` to a minimal one still satisfying ``reproduces``.

    A generator: it yields batches of ``cell(candidate)``, takes back the
    batch's results in order, judges each with ``reproduces`` and returns
    a :class:`ShrinkOutcome`.  The search yields the batches as audit
    cells into the sweep loop.  ``schedule`` must already reproduce.

    The shrinker alternates two monotone phases:

    1. **removal fixpoint** (delta debugging): repeatedly drop any single
       fault whose removal keeps the predicate true, until a full pass
       removes nothing — the schedule is 1-minimal under removal; a pass
       is one batch, and the first reproducing candidate in order wins;
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
    """
    trials = 0
    exhausted = False

    def check_many(batch: Sequence[FaultSchedule]):
        nonlocal trials, exhausted
        if trials >= budget:
            exhausted = True
            return None
        trials += len(batch)
        results = yield [cell(candidate) for candidate in batch]
        return [reproduces(result) for result in results]

    def removal_fixpoint(sched: FaultSchedule):
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
            verdicts = yield from check_many(candidates)
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

    def bisect_faults(sched: FaultSchedule):
        for i in range(len(sched.faults)):
            for transform in (halved_duration, halved_intensity):
                for _ in range(_BISECT_STEPS):
                    weakened = transform(sched.faults[i])
                    if weakened is None:
                        break
                    candidate = FaultSchedule(
                        sched.name,
                        sched.faults[:i] + (weakened,) + sched.faults[i + 1 :],
                    )
                    verdicts = yield from check_many([candidate])
                    if not (verdicts and verdicts[0]):
                        break
                    sched = candidate
        return sched

    current, complete = yield from removal_fixpoint(schedule)
    if current.faults and complete:
        bisected = yield from bisect_faults(current)
        if bisected.faults != current.faults:
            current, complete = yield from removal_fixpoint(bisected)
        else:
            current = bisected
    return ShrinkOutcome(
        schedule=current,
        trials=trials,
        removed=len(schedule.faults) - len(current.faults),
        one_minimal=complete and not exhausted,
        exhausted=exhausted,
    )


# ----------------------------------------------------------------------
# the search campaign: generate -> evaluate -> shrink anomalies
# ----------------------------------------------------------------------
def search_is_sound(payload: dict) -> bool:
    """Did no in-envelope searched cell observe beyond its prediction?"""
    return all(cell["status"] != "unsound" for cell in payload["cells"])


def render_search(payload: dict) -> str:
    """The human-readable search report (the sweep adds its engine line)."""
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
    return "\n".join(lines)


@dataclasses.dataclass(kw_only=True)
class SearchSweep(Sweep):
    """Search for minimal anomaly-exhibiting schedules per app x strategy.

    Evaluates ``candidates`` composite schedules per app (inside its
    envelope) x strategy in one batch, then shrinks each cell observed
    beyond Async to a 1-minimal schedule still exhibiting the *same*
    label under the same seeds — one batch per shrink step, plus one
    verifying the minimal schedule.  The value is a JSON-able payload:
    candidate cells, findings, and the engine accounting folded over
    every batch; the record is the candidate batch.
    """

    kind = "search"
    candidates: int = 4
    budget: int = 64
    seed: int = 0
    payload = staticmethod(dict)
    sound = staticmethod(search_is_sound)
    text = staticmethod(render_search)

    def __post_init__(self) -> None:
        if self.candidates < 1:
            raise BlazesError(f"candidates must be >= 1, got {self.candidates}")
        if self.budget < 0:
            raise BlazesError(f"budget must be >= 0, got {self.budget}")
        super().__post_init__()

    def cells(self):
        swept = []
        for app in self.apps:
            harness = harness_for(app, smoke=self.smoke)
            generated = composite_schedules(
                self.candidates, seed=self.seed,
                envelope=harness.envelope, roles=harness.role_pool(),
            )
            swept += [
                (harness, strategy, schedule)
                for strategy in harness.strategies for schedule in generated
            ]

        def cell(harness, strategy, schedule):
            return audit_cell(harness, strategy, schedule, seeds=self.seeds, inline=True)

        results = yield [cell(*triple) for triple in swept]
        rows, findings = [], []
        for (harness, strategy, schedule), result in zip(swept, results):
            metrics = result.metrics
            head = {"app": harness.name, "strategy": strategy, "schedule": schedule.name}
            rows.append({
                "name": result.name, **head, "faults": len(schedule.faults),
                **{key: metrics[key] for key in ("predicted", "observed", "status", "consistent")},
            })
            if metrics["observed_severity"] <= _CONSISTENT_SEVERITY or not metrics["in_envelope"]:
                continue
            outcome = yield from shrink_schedule(
                schedule,
                lambda row: row["observed"] == metrics["observed"],
                budget=self.budget,
                cell=lambda candidate: cell(harness, strategy, candidate),
            )
            # explicit final verification (a cache hit): the CI gate asserts
            # every minimized schedule still reproduces its verdict
            (final,) = yield [cell(harness, strategy, outcome.schedule)]
            minimal = outcome.schedule
            findings.append({
                "cell": result.name, **head,
                **{key: metrics[key] for key in ("predicted", "observed", "status")},
                "original": schedule.to_dict(), "original_faults": len(schedule.faults),
                "minimal": minimal.to_dict(), "minimal_faults": len(minimal.faults),
                **{key: getattr(outcome, key) for key in ("removed", "trials", "one_minimal", "exhausted")},
                "reproduced": final["observed"] == metrics["observed"],
                "minimal_description": minimal.describe(),
            })
        return {
            "search": self.name, "apps": list(self.apps), "candidates": self.candidates,
            "budget": self.budget, "seed": self.seed, "seeds": list(self.seeds),
            "cells": rows, "findings": findings,
        }

    def reduce(self, found, reports, engine) -> dict:
        return {**found, "engine": engine}

    def record(self, payload, reports: list[BenchReport]) -> BenchReport:
        return reports[0]


# ----------------------------------------------------------------------
# the severity frontier: bisect intensity per app x strategy
# ----------------------------------------------------------------------
def _frontier_base(harness) -> FaultSchedule:
    """The app's full-envelope schedule: every default fault at once."""
    faults = (fault for schedule in harness.schedules for fault in schedule.faults)
    return FaultSchedule("envelope", tuple(faults))


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


@dataclasses.dataclass(kw_only=True)
class FrontierSweep(Sweep):
    """Map, per app x strategy, the intensity where the guarantee breaks.

    Each pair's *envelope schedule* (all of the app's default faults
    composed) is evaluated at both intensity endpoints in one batch:
    intensity 0 melts to the fault-free baseline (a pair already
    inconsistent there has ``frontier`` 0 — the anomaly needs no faults
    at all), and pairs consistent at full intensity hold through the
    whole envelope and report a ``frontier`` of ``None``.  The remaining
    pairs bisect :meth:`FaultSchedule.with_intensity` over [0, 1] for
    ``steps`` rounds, one batch per round across pairs; ``frontier`` is
    the smallest intensity observed to degrade the guarantee.  The
    frontier is a map, not a verdict: it never fails the run.
    """

    kind = "frontier"
    steps: int = 5
    payload = staticmethod(BenchReport.to_dict)
    text = staticmethod(render_frontier)

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise BlazesError(f"steps must be >= 0, got {self.steps}")
        super().__post_init__()

    def cells(self):
        pairs = []
        for app in self.apps:
            harness = harness_for(app, smoke=self.smoke)
            base = _frontier_base(harness)
            pairs += [
                {"harness": harness, "strategy": strategy, "base": base, "lo": 0.0, "hi": 1.0}
                for strategy in harness.strategies
            ]

        def cell(pair, schedule):
            return audit_cell(
                pair["harness"], pair["strategy"], schedule, seeds=self.seeds, inline=True
            )

        # round 0: both intensity endpoints for every pair, one batch — the
        # lam=0 schedule melts to the fault-free baseline
        rows = yield [cell(p, p["base"]) for p in pairs] + [
            cell(p, p["base"].with_intensity(0.0)) for p in pairs
        ]
        for pair, full, zero in zip(pairs, rows, rows[len(pairs) :]):
            pair["rows"] = [full, zero]
        # a pair anomalous at intensity 0 has its frontier at the floor, and
        # one consistent at intensity 1 holds throughout: neither bisects
        active = [
            p for p in pairs if p["rows"][1]["consistent"] and not p["rows"][0]["consistent"]
        ]
        for _ in range(self.steps if active else 0):
            mids = [(p["lo"] + p["hi"]) / 2 for p in active]
            rows = yield [cell(p, p["base"].with_intensity(m)) for p, m in zip(active, mids)]
            for pair, mid, row in zip(active, mids, rows):
                pair["rows"].append(row)
                pair["lo" if row["consistent"] else "hi"] = mid
        return pairs

    def reduce(self, pairs, reports, engine) -> BenchReport:
        results = []
        for pair in pairs:
            app, strategy, base = pair["harness"].name, pair["strategy"], pair["base"]
            full, zero = (row.metrics for row in pair["rows"][:2])
            frontier = None
            if not zero["consistent"]:
                frontier = 0.0
            elif not full["consistent"]:
                frontier = pair["hi"]
            params = {
                "app": app, "strategy": strategy, "smoke": self.smoke,
                "seeds": list(self.seeds), "steps": self.steps,
                "schedule_spec": base.to_dict(),
            }
            metrics = {
                "frontier": frontier, "holds": frontier is None,
                "probes": len(pair["rows"]), "faults": len(base.faults),
                "predicted": full["predicted"], "observed_full": full["observed"],
                "observed_full_severity": full["observed_severity"],
                "observed_zero": zero["observed"], "status_full": full["status"],
                "coordinated": full["coordinated"],
            }
            wall = sum(row.wall_seconds for row in pair["rows"])
            results.append(ScenarioResult(f"{app}/{strategy}", params, metrics, wall))
        report = BenchReport(self.name, results)
        report.engine = engine
        return report

    def sound(self, report: BenchReport) -> bool:
        return True


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
    """Run the :class:`FrontierSweep` and return its per-pair report."""
    sweep = FrontierSweep(apps=apps, smoke=smoke, seeds=seeds, steps=steps)
    return sweep.run(jobs=jobs, cache=cache, reporter=reporter)
