"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from tests.reference import events_ref


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_ties_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_run_until_bounds_virtual_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert fired == [1, 5]


# the seed scheduler had the same clock bug; both kernels are held to the fix
KERNELS = pytest.mark.parametrize(
    "sim_cls", [Simulator, events_ref.Simulator], ids=["fast", "ref"]
)


@KERNELS
def test_run_until_a_bound_already_passed_fires_nothing_and_keeps_the_clock(sim_cls):
    sim = sim_cls()
    fired = []
    sim.schedule(5.0, lambda: fired.append(5))
    sim.schedule(6.0, lambda: fired.append(6))
    sim.run(until=5.5)
    assert fired == [5] and sim.now == pytest.approx(5.5)
    sim.run(until=3.0)  # events remain beyond the bound: the clock must not go back
    assert fired == [5] and sim.now == pytest.approx(5.5)
    sim.run(until=5.5)
    assert fired == [5] and sim.now == pytest.approx(5.5)
    sim.run()
    assert fired == [5, 6] and sim.now == pytest.approx(6.0)
    sim.run(until=1.0)  # and with an empty queue
    assert sim.now == pytest.approx(6.0)


@KERNELS
@pytest.mark.parametrize("budget", [0, -1])
def test_a_budget_of_zero_or_less_fires_nothing(sim_cls, budget):
    sim = sim_cls()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.run(max_events=budget)
    assert fired == [] and sim.fired == 0 and sim.pending == 1
    assert sim.now == 0.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == pytest.approx(7.5)


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == pytest.approx(2.0)


def test_max_events_is_a_safety_valve():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    sim.run(max_events=25)
    assert sim.fired == 25


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(4.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [pytest.approx(4.0)]


def test_determinism_same_seed_same_draws():
    draws_a = _draw_sequence(seed=42)
    draws_b = _draw_sequence(seed=42)
    draws_c = _draw_sequence(seed=43)
    assert draws_a == draws_b
    assert draws_a != draws_c


def _draw_sequence(seed: int) -> list[float]:
    sim = Simulator(seed=seed)
    draws: list[float] = []

    def draw():
        draws.append(sim.rng.random())
        if len(draws) < 10:
            sim.schedule(sim.rng.random(), draw)

    sim.schedule(0.0, draw)
    sim.run()
    return draws


# ----------------------------------------------------------------------
# pending accounting (regression: cancelled events used to count)
# ----------------------------------------------------------------------
def test_pending_excludes_cancelled_events():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    first.cancel()
    # the cancelled event still sits in the heap awaiting lazy removal,
    # but it will never fire — quiescence checks must not see it
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    assert sim.fired == 1


def test_double_cancel_decrements_pending_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending == 1


def test_stale_handle_cancel_after_recycle_is_noop():
    sim = Simulator()
    fired = []
    stale = sim.schedule(0.5, lambda: fired.append("a"))
    sim.run()
    # a fired record keeps its slot list but loses its fn: cancelling it
    # late must neither kill the next event nor touch the live count
    sim.schedule(1.0, lambda: fired.append("b"))
    stale.cancel()
    sim.run()
    assert fired == ["a", "b"]
    assert sim.fired == 2


# ----------------------------------------------------------------------
# fire-and-forget scheduling and wakers
# ----------------------------------------------------------------------
def test_post_fires_with_args():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, "x")
    sim.post(0.5, fired.append, "y")
    sim.run()
    assert fired == ["y", "x"]


def test_post_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.post(1.0, lambda: sim.post_at(4.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [pytest.approx(4.0)]


def test_post_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)


def test_waker_coalesces_arms():
    sim = Simulator()
    fired = []
    wake = sim.waker(1.0, lambda: fired.append(sim.now))
    wake.arm()
    wake.arm()
    wake.arm()
    assert sim.pending == 1
    sim.run()
    assert fired == [pytest.approx(1.0)]


def test_waker_rearms_from_its_own_fn():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            wake.arm()

    wake = sim.waker(1.0, tick)
    wake.arm()
    sim.run()
    assert fired == [pytest.approx(t) for t in (1.0, 2.0, 3.0)]


def test_waker_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.waker(-1.0, lambda: None)


# ----------------------------------------------------------------------
# tick_delay float accumulation at long horizons
# ----------------------------------------------------------------------
def test_repeated_tick_delay_drift_is_bounded():
    # A BloomNode waker re-arms at now + tick_delay every firing; with a
    # binary-unrepresentable delay the clock accumulates one rounding per
    # tick.  The drift after N ticks must stay far below the delay itself
    # and the clock must never go backwards.
    sim = Simulator()
    delay = 0.0005  # not representable in base 2
    ticks = 10_000
    times = []

    def tick():
        times.append(sim.now)
        if len(times) < ticks:
            sim.post(delay, tick)

    sim.post(delay, tick)
    sim.run()
    assert times == sorted(times)
    drift = abs(sim.now - ticks * delay)
    assert drift < 1e-9, f"accumulated {drift} over {ticks} ticks"
