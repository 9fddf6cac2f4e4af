"""Tests for adaptive chaos search: generator, shrinker, frontier.

The shrinker invariants are property-tested against synthetic predicates
(no simulator in the loop — the shrinker is pure given a predicate); the
engine-backed paths run small smoke campaigns on the real apps.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
)
from repro.chaos.search import (
    composite_schedule,
    composite_schedules,
    shrink_schedule,
)
from repro.errors import SimulationError

# ----------------------------------------------------------------------
# synthetic fault/schedule strategies (discrete values: no float noise)
# ----------------------------------------------------------------------
_ATS = st.sampled_from([0.0, 0.1, 0.2, 0.3])
_DURS = st.sampled_from([0.1, 0.2, 0.4])
_PROBS = st.sampled_from([0.2, 0.5, 0.8])

faults = st.one_of(
    st.builds(Loss, _ATS, _DURS, _PROBS),
    st.builds(Duplicate, _ATS, _DURS, _PROBS),
    st.builds(Reorder, _ATS, _DURS, st.sampled_from([2.0, 4.0, 8.0])),
    st.builds(Crash, st.just("worker"), st.integers(0, 1), _ATS, _DURS),
)

schedules = st.builds(
    lambda fs: FaultSchedule("synthetic", tuple(fs)),
    st.lists(faults, min_size=1, max_size=6),
)


def _descends_from(shrunk, original) -> bool:
    """Is ``shrunk`` the same fault with an equal-or-smaller window and
    equal-or-lower intensity?  (Same kind, same target, same ``at``.)"""
    if type(shrunk) is not type(original):
        return False
    if shrunk.at != original.at or shrunk.duration > original.duration:
        return False
    weak = {"duration": shrunk.duration}
    if isinstance(shrunk, Loss):
        if shrunk.drop_prob > original.drop_prob:
            return False
        weak["drop_prob"] = shrunk.drop_prob
    elif isinstance(shrunk, Duplicate):
        if shrunk.dup_prob > original.dup_prob:
            return False
        weak["dup_prob"] = shrunk.dup_prob
    elif isinstance(shrunk, Reorder):
        if shrunk.factor > original.factor:
            return False
        weak["factor"] = shrunk.factor
    # all remaining fields (roles, indices, symmetric) must be untouched
    return dataclasses.replace(original, **weak) == shrunk


def _is_weakened_subsequence(minimal, original) -> bool:
    """Every minimal fault maps (order-preserving, injectively) to an
    original fault it descends from — the shrinker only removes and
    weakens, never invents, duplicates, or reorders."""
    position = 0
    for fault in minimal.faults:
        while position < len(original.faults) and not _descends_from(
            fault, original.faults[position]
        ):
            position += 1
        if position == len(original.faults):
            return False
        position += 1
    return True


def _shrink(schedule, reproduces, *, batches=None, **options):
    """Drive the shrinker to its outcome, answering each candidate batch
    with the batch itself (its default ``cell`` is the schedule); the
    batch sizes are appended to ``batches`` when given."""
    steps = shrink_schedule(schedule, reproduces, **options)
    results = None
    while True:
        try:
            results = steps.send(results)
        except StopIteration as stop:
            return stop.value
        if batches is not None:
            batches.append(len(results))


class TestShrinkerProperties:
    @settings(max_examples=60, deadline=None)
    @given(schedules, st.data())
    def test_culprit_subset_is_recovered_exactly(self, schedule, data):
        # the classic delta-debugging workload: the anomaly needs some
        # subset of the faults; everything else is noise to remove
        mask = data.draw(
            st.lists(
                st.booleans(),
                min_size=len(schedule.faults),
                max_size=len(schedule.faults),
            )
        )
        culprit = [f for f, keep in zip(schedule.faults, mask) if keep]

        def reproduces(candidate):
            pool = list(candidate.faults)
            for fault in culprit:
                if fault in pool:
                    pool.remove(fault)
                else:
                    return False
            return True

        outcome = _shrink(schedule, reproduces, budget=500)
        assert not outcome.exhausted
        assert outcome.one_minimal
        assert reproduces(outcome.schedule)  # verdict reproduced
        # exact-match predicate: bisection can't weaken a culprit fault,
        # and every non-culprit fault is removable -> exactly the culprit
        assert sorted(outcome.schedule.faults, key=repr) == sorted(
            culprit, key=repr
        )
        assert _is_weakened_subsequence(outcome.schedule, schedule)

    @settings(max_examples=60, deadline=None)
    @given(schedules)
    def test_kind_predicate_yields_one_minimal_descendant(self, schedule):
        # a weakening-tolerant predicate: the anomaly needs *some* fault
        # of the first fault's kind, however weak -> bisection engages
        kind = type(schedule.faults[0])

        def reproduces(candidate):
            return any(isinstance(f, kind) for f in candidate.faults)

        outcome = _shrink(schedule, reproduces, budget=500)
        assert not outcome.exhausted
        assert outcome.one_minimal
        assert reproduces(outcome.schedule)
        assert len(outcome.schedule.faults) == 1
        assert _is_weakened_subsequence(outcome.schedule, schedule)
        # 1-minimality, checked directly: dropping the last fault fails
        assert not reproduces(FaultSchedule(schedule.name, ()))

    @settings(max_examples=30, deadline=None)
    @given(schedules)
    def test_shrink_never_grows_and_respects_budget(self, schedule):
        calls = {"n": 0}

        def reproduces(candidate):
            calls["n"] += 1
            return True  # everything reproduces: shrink to nothing

        outcome = _shrink(schedule, reproduces, budget=10)
        assert outcome.trials == calls["n"]
        # soft cap: a phase checks before each batch, so the count may
        # overshoot by at most one batch (= len(faults) candidates)
        assert outcome.trials <= 10 + len(schedule.faults)
        assert len(outcome.schedule.faults) <= len(schedule.faults)
        assert _is_weakened_subsequence(outcome.schedule, schedule)


class TestShrinkerEdges:
    def test_zero_budget_returns_original_unclaimed(self):
        schedule = FaultSchedule("s", (Loss(0.1, 0.4, 0.8),))
        outcome = _shrink(schedule, lambda s: True, budget=0)
        assert outcome.schedule == schedule
        assert outcome.trials == 0
        assert outcome.exhausted
        assert not outcome.one_minimal

    def test_bisection_halves_windows_and_intensities(self):
        schedule = FaultSchedule(
            "s", (Reorder(0.0, 0.4, 9.0), Loss(0.1, 0.4, 0.8))
        )

        def reproduces(candidate):
            return any(isinstance(f, Loss) for f in candidate.faults)

        outcome = _shrink(schedule, reproduces, budget=100)
        assert outcome.one_minimal
        (loss,) = outcome.schedule.faults
        assert isinstance(loss, Loss)
        assert loss.at == pytest.approx(0.1)  # windows never move
        assert loss.duration == pytest.approx(0.4 / 8)  # 3 halvings
        assert loss.drop_prob == pytest.approx(0.8 / 8)

    def test_batched_predicate_matches_serial_semantics(self):
        schedule = FaultSchedule(
            "s",
            (Loss(0.1, 0.2, 0.5), Duplicate(0.2, 0.2, 0.5), Loss(0.3, 0.4, 0.8)),
        )

        def reproduces(candidate):
            return sum(isinstance(f, Loss) for f in candidate.faults) >= 1

        batches: list[int] = []
        outcome = _shrink(schedule, reproduces, budget=200, batches=batches)
        # a removal pass is one batch (the first reproducing candidate in
        # order wins), each bisection probe a batch of its own
        assert batches[:3] == [3, 2, 1]
        assert set(batches[3:]) == {1}
        assert outcome.trials == sum(batches)
        (loss,) = outcome.schedule.faults
        assert loss.at == pytest.approx(0.3)


class TestCompositeGenerator:
    def test_deterministic_in_seed_and_index(self):
        a = composite_schedule(seed=3, index=2, roles=("worker",))
        b = composite_schedule(seed=3, index=2, roles=("worker",))
        c = composite_schedule(seed=3, index=3, roles=("worker",))
        assert a == b
        assert a != c

    def test_faults_overlap_the_carrier_window(self):
        for index in range(8):
            schedule = composite_schedule(seed=1, index=index, roles=("worker",))
            carrier = schedule.faults[0]
            assert len(schedule.faults) >= 2
            for fault in schedule.faults[1:]:
                assert carrier.at <= fault.at <= carrier.end

    def test_respects_envelope_kinds_and_ceilings(self):
        from repro.chaos.envelope import FaultEnvelope, order_only_envelope

        env = order_only_envelope()
        for schedule in composite_schedules(6, seed=5, envelope=env):
            assert env.violations(schedule) == ()
            assert {type(f) for f in schedule.faults} <= {Reorder, Duplicate}
        # the generator's own ceilings: loss under 0.6, duplication under 0.7
        lossy = FaultEnvelope("lossy", frozenset({"loss", "duplicate"}))
        probs = [
            (type(f), f.drop_prob if isinstance(f, Loss) else f.dup_prob)
            for schedule in composite_schedules(12, seed=5, envelope=lossy)
            for f in schedule.faults
        ]
        assert {kind for kind, _ in probs} == {Loss, Duplicate}
        assert all(0.1 <= p <= (0.6 if kind is Loss else 0.7) for kind, p in probs)

    def test_no_roles_means_no_role_addressed_faults(self):
        for schedule in composite_schedules(6, seed=7, roles=()):
            assert not any(
                isinstance(f, (Crash, Partition)) for f in schedule.faults
            )

    def test_empty_intersection_raises(self):
        from repro.chaos.envelope import FaultEnvelope

        env = FaultEnvelope("crash-only", frozenset({"crash"}))
        with pytest.raises(SimulationError, match="no generatable"):
            composite_schedule(seed=0, envelope=env, roles=())


# ----------------------------------------------------------------------
# engine-backed paths (smoke-sized, wordcount only)
# ----------------------------------------------------------------------
class TestSearchCampaign:
    def test_smoke_search_finds_minimal_reproducing_anomalies(self, tmp_path):
        from repro.chaos.search import SearchSweep, search_is_sound
        from repro.exec import CellCache
        from repro.obs.render import engine_line

        sweep = SearchSweep(apps=["wordcount"], smoke=True, candidates=2, budget=24)
        payload = sweep.run(cache=CellCache(tmp_path / "cache"))
        assert payload["cells"] and len(payload["cells"]) == 2 * 2  # 2 strategies
        assert search_is_sound(payload)  # wordcount's labels are sound
        # the eager strategy's Run anomaly must be found and minimized
        assert payload["findings"], "expected anomalies beyond Async"
        for finding in payload["findings"]:
            assert finding["strategy"] == "eager"
            assert finding["observed"] == "Run"
            assert finding["reproduced"], "minimal schedule must reproduce"
            assert finding["minimal_faults"] <= finding["original_faults"]
        engine = payload["engine"]
        assert engine["cells"] == engine["cache_hits"] + engine["cache_misses"]
        assert engine["batches"] > 1 and engine["events"] > 0
        # the engine block is the sweep's only account: the cache keeps objects
        assert [path.name for path in (tmp_path / "cache").iterdir()] == ["objects"]
        text = sweep.render(payload)
        assert "minimized anomalies" in text
        assert text.endswith(f"\n\n{engine_line(engine)}")

    def test_search_cells_hit_cache_across_runs(self, tmp_path):
        from repro.chaos.search import SearchSweep
        from repro.exec.cache import CellCache

        def search():
            sweep = SearchSweep(apps=["wordcount"], smoke=True, candidates=2, budget=24)
            return sweep.run(cache=CellCache(tmp_path / "cache"))

        cold, warm = search(), search()
        assert warm["engine"]["cache_hits"] == warm["engine"]["cells"] == cold["engine"]["cells"]
        assert (warm["engine"]["computed"], warm["engine"]["events"]) == (0, 0)
        assert warm["findings"] == cold["findings"]


class TestFrontierCampaign:
    def test_smoke_frontier_on_wordcount(self, tmp_path):
        from repro.chaos.search import FrontierSweep, render_frontier
        from repro.exec.cache import CellCache

        report = FrontierSweep(apps=["wordcount"], smoke=True, steps=2).run(
            jobs=1, cache=CellCache(tmp_path / "cache")
        )
        assert {r.name for r in report} == {
            "wordcount/sealed",
            "wordcount/eager",
        }
        sealed = report.row("wordcount/sealed")
        assert sealed["holds"] and sealed["frontier"] is None
        # eager exhibits Run with no faults at all: the frontier floor
        eager = report.row("wordcount/eager")
        assert eager["frontier"] == 0.0 and not eager["holds"]
        for result in report:
            assert result["probes"] >= 2  # both endpoints always probed
            assert result["predicted"]
        assert report.engine is not None
        text = render_frontier(report)
        assert "severity frontier" in text and "holds" in text

    def test_bisection_rounds_converge_in_lockstep(self, monkeypatch):
        """Two pairs bisect side by side against a synthetic cell whose
        verdict flips at a known intensity; the third holds throughout.

        The fake reads the intensity back off the envelope schedule's
        reorder factor (8 at full intensity, interpolated toward 1)."""
        import repro.chaos.campaign as campaign
        from repro.chaos.schedule import Reorder, schedule_from_dict
        from repro.chaos.search import FrontierSweep

        flips_at = {"uncoordinated": 0.3, "sealed": 0.7}

        def fake_cell(*, strategy, schedule_spec, **_params):
            reorders = [
                f for f in schedule_from_dict(schedule_spec).faults
                if isinstance(f, Reorder)
            ]
            intensity = (reorders[0].factor - 1.0) / 7.0 if reorders else 0.0
            broken = intensity >= flips_at.get(strategy, 2.0)
            return {
                "predicted": "Async",
                "observed": "Diverge" if broken else "Async",
                "observed_severity": 5 if broken else 2,
                "status": "unsound" if broken else "sound",
                "consistent": not broken,
                "coordinated": strategy != "uncoordinated",
            }

        monkeypatch.setattr(campaign, "_cell_metrics", fake_cell)
        report = FrontierSweep(apps=["kvs"], smoke=True, steps=3).run(jobs=1, cache=None)
        pinned = {
            r.name: (r["frontier"], r["probes"], r["holds"]) for r in report
        }
        assert pinned == {
            # 0.5 breaks, 0.25 holds, 0.375 breaks
            "kvs/uncoordinated": (0.375, 5, False),
            # 0.5 holds, 0.75 breaks, 0.625 holds
            "kvs/sealed": (0.75, 5, False),
            "kvs/ordered": (None, 2, True),
        }
        # the endpoints batch, then one batch per bisection round
        assert report.engine["batches"] == 4
        assert report.engine["cells"] == 3 * 2 + 2 * 3


def _without_timing(value):
    if isinstance(value, dict):
        return {
            key: _without_timing(item)
            for key, item in value.items()
            if key not in ("engine", "wall_seconds", "cpu_seconds")
        }
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


@pytest.mark.parametrize(
    "sweep, options",
    [
        ("search", dict(apps=["wordcount"], candidates=2, budget=8)),
        ("frontier", dict(apps=["kvs"], steps=2)),
    ],
)
def test_adaptive_sweeps_do_not_depend_on_jobs(sweep, options):
    """The loop owns the fan-out: the golden search and frontier give the
    same payload serially and on a two-worker pool."""
    from repro.bench import BenchReport
    from repro.chaos.search import FrontierSweep, SearchSweep
    from repro.exec import shutdown_shared_pool

    kind, to_dict = {
        "search": (SearchSweep, dict),
        "frontier": (FrontierSweep, BenchReport.to_dict),
    }[sweep]
    try:
        serial = to_dict(kind(smoke=True, **options).run(jobs=1))
        pooled = to_dict(kind(smoke=True, **options).run(jobs=2))
    finally:
        shutdown_shared_pool()
    assert pooled["engine"]["jobs"] == 2
    assert _without_timing(serial) == _without_timing(pooled)
