"""Property-based kernel invariants, held on BOTH kernels.

Each property is parametrized over the fast and reference simulator
classes directly, so hypothesis shrinks counterexamples against whichever
kernel broke the invariant:

* virtual time is monotone under any schedule of events;
* events at one timestamp fire in schedule order, even when scheduled
  from inside other events;
* a cancelled event never executes, no matter when the cancel lands;
* re-running any seed reproduces ``fired``, ``now``, and the full fire
  log exactly;
* ``until`` / ``max_events`` bounds are respected under random schedules;
* the two kernels produce identical fire logs for random programs — the
  property-level form of the app-level differential suite.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import events
from tests.reference import events_ref

KERNEL_CLASSES = (events.Simulator, events_ref.Simulator)
KERNEL_IDS = tuple(cls.kernel for cls in KERNEL_CLASSES)

both_kernels = pytest.mark.parametrize(
    "sim_cls", KERNEL_CLASSES, ids=KERNEL_IDS
)

# A random program: a list of (delay, extra) pairs; each event appends to
# the fire log and schedules ``extra`` follow-ups at random small delays
# drawn from the simulator's own RNG, exercising schedule-from-inside.
programs = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=25,
)


def _execute(sim, program, *, until=None, max_events=None):
    log = []

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        for sub in range(extras.get(tag, 0)):  # follow-ups spawn nothing
            sim.schedule(sim.rng.random(), lambda t=(tag, sub): fire(t))

    extras = {}
    for index, (delay, extra) in enumerate(program):
        extras[index] = extra
        sim.schedule(delay, lambda i=index: fire(i))
    sim.run(until=until, max_events=max_events)
    return log


@both_kernels
class TestKernelInvariants:
    @given(program=programs)
    def test_virtual_time_monotone(self, sim_cls, program):
        sim = sim_cls(seed=0)
        log = _execute(sim, program)
        times = [t for t, _ in log]
        assert times == sorted(times)

    @given(delays=st.lists(st.floats(min_value=0, max_value=5), min_size=2, max_size=15))
    def test_same_timestamp_fires_in_schedule_order(self, sim_cls, delays):
        sim = sim_cls()
        fired = []
        for tag in range(len(delays)):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == list(range(len(delays)))

    @given(
        delays=st.lists(st.floats(min_value=0, max_value=10), min_size=2, max_size=12),
        cancel_index=st.integers(min_value=0, max_value=11),
    )
    def test_cancel_before_fire_never_executes(self, sim_cls, delays, cancel_index):
        cancel_index %= len(delays)
        sim = sim_cls()
        fired = []
        handles = [
            sim.schedule(delay, lambda t=tag: fired.append(t))
            for tag, delay in enumerate(delays)
        ]
        handles[cancel_index].cancel()
        sim.run()
        assert cancel_index not in fired
        assert sorted(fired) == [t for t in range(len(delays)) if t != cancel_index]

    @given(program=programs, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_rerun_reproduces_everything(self, sim_cls, program, seed):
        first = sim_cls(seed=seed)
        second = sim_cls(seed=seed)
        assert _execute(first, program) == _execute(second, program)
        assert first.now == second.now
        assert first.fired == second.fired
        assert first.pending == second.pending

    @given(program=programs, until=st.floats(min_value=0, max_value=60))
    def test_until_bound_respected(self, sim_cls, program, until):
        sim = sim_cls(seed=1)
        log = _execute(sim, program, until=until)
        assert all(t <= until + 1e-9 for t, _ in log)
        assert sim.now <= until + 1e-9

    @given(program=programs, max_events=st.integers(min_value=0, max_value=10))
    def test_max_events_bound_respected(self, sim_cls, program, max_events):
        sim = sim_cls(seed=1)
        log = _execute(sim, program, max_events=max_events)
        assert len(log) <= max_events
        assert sim.fired <= max_events

    @given(
        delays=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=10)
    )
    def test_pending_counts_live_events_only(self, sim_cls, delays):
        sim = sim_cls()
        handles = [sim.schedule(d, lambda: None) for d in delays]
        assert sim.pending == len(delays)
        handles[0].cancel()
        assert sim.pending == len(delays) - 1
        handles[0].cancel()  # idempotent
        assert sim.pending == len(delays) - 1
        sim.run()
        assert sim.pending == 0
        assert sim.fired == len(delays) - 1


class TestKernelAgreement:
    """Random programs produce identical observable runs on both kernels."""

    @given(
        program=programs,
        seed=st.integers(min_value=0, max_value=2**31),
        until=st.one_of(st.none(), st.floats(min_value=0, max_value=60)),
        max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    @settings(max_examples=60)
    def test_fire_logs_identical(self, program, seed, until, max_events):
        results = []
        for cls in KERNEL_CLASSES:
            sim = cls(seed=seed)
            log = _execute(sim, program, until=until, max_events=max_events)
            results.append((log, sim.now, sim.fired, sim.pending))
        assert results[0] == results[1]

    @given(
        delays=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=12),
        cancel_mask=st.integers(min_value=0, max_value=4095),
    )
    @settings(max_examples=60)
    def test_cancellation_identical(self, delays, cancel_mask):
        results = []
        for cls in KERNEL_CLASSES:
            sim = cls()
            fired = []
            handles = [
                sim.schedule(delay, lambda t=tag: fired.append(t))
                for tag, delay in enumerate(delays)
            ]
            for index, handle in enumerate(handles):
                if cancel_mask & (1 << index):
                    handle.cancel()
            sim.run()
            results.append((fired, sim.now, sim.fired, sim.pending))
        assert results[0] == results[1]


class Boom(Exception):
    """Raised by a callback to end a run."""


@both_kernels
def test_a_raising_callback_counts_as_fired(sim_cls):
    sim = sim_cls()

    def boom():
        raise Boom

    for delay in (1.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.schedule(2.0, boom)
    with pytest.raises(Boom):
        sim.run()
    assert (sim.now, sim.fired, sim.pending) == (2.0, 2, 1)
    sim.run()
    assert (sim.now, sim.fired, sim.pending) == (3.0, 3, 0)


bounded_runs = st.lists(
    st.one_of(
        st.builds(dict, max_events=st.integers(min_value=0, max_value=6)),
        st.builds(dict, until=st.floats(min_value=0, max_value=60)),
    ),
    min_size=1,
    max_size=6,
)


@given(
    program=programs,
    seed=st.integers(min_value=0, max_value=2**31),
    runs=bounded_runs,
    raise_at=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
)
@settings(max_examples=80)
def test_counters_between_runs_match_the_reference(program, seed, runs, raise_at):
    """``fired`` and ``pending`` read between runs — after each
    ``run(max_events=k)``, each ``run(until=t)`` and a run a callback ended
    by raising — are the reference kernel's, and so is the drained end."""
    results = []
    for cls in KERNEL_CLASSES:
        sim = cls(seed=seed)
        log = []
        extras = {}

        def fire(tag, sim=sim, log=log, extras=extras):
            log.append((round(sim.now, 9), tag))
            if len(log) == raise_at:
                raise Boom
            for sub in range(extras.get(tag, 0)):
                sim.schedule(sim.rng.random(), lambda t=(tag, sub): fire(t))

        for index, (delay, extra) in enumerate(program):
            extras[index] = extra
            sim.schedule(delay, lambda i=index: fire(i))
        readings = []
        for bounds in runs + [{}]:
            try:
                sim.run(**bounds)
                ended = "returned"
            except Boom:
                ended = "raised"
            readings.append((ended, sim.now, sim.fired, sim.pending, len(log)))
        results.append(readings)
    assert results[0] == results[1]
