"""Unit tests for fault injection."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim import FailureInjector, Network, Process, Simulator

NAN = math.nan
INF = math.inf


class Echo(Process):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def recv(self, msg):
        self.got.append(msg.payload)


def build():
    sim = Simulator(seed=1)
    network = Network(sim)
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    return sim, network, a, b


def test_crash_window_drops_messages():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.crash_for("b", at=1.0, duration=2.0)
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
    sim.run()
    # messages sent at 1.5 and 2.5 land inside the crash window
    assert all(p < 1.0 or p > 3.0 for p in b.got)
    assert len(b.got) == 2
    assert injector.crashes and injector.recoveries


def test_loss_window_restores_previous_probability():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.loss_window(at=1.0, duration=1.0, drop_prob=1.0)
    sim.schedule_at(0.5, lambda: a.send("b", "data", "before"))
    sim.schedule_at(1.5, lambda: a.send("b", "data", "during"))
    sim.schedule_at(3.0, lambda: a.send("b", "data", "after"))
    sim.run()
    assert "before" in b.got
    assert "during" not in b.got
    assert "after" in b.got
    assert network.drop_prob == 0.0


def test_duplicate_window_restores_previous_probability():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.duplicate_window(at=1.0, duration=1.0, dup_prob=1.0)
    sim.schedule_at(0.5, lambda: a.send("b", "data", "before"))
    sim.schedule_at(1.5, lambda: a.send("b", "data", "during"))
    sim.schedule_at(3.0, lambda: a.send("b", "data", "after"))
    sim.run()
    assert b.got.count("before") == 1
    assert b.got.count("during") == 2
    assert b.got.count("after") == 1
    assert network.dup_prob == 0.0
    assert network.duplicated == 1


def test_partition_drops_messages_then_heals():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.partition("a", "b", at=1.0, duration=2.0)
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
        sim.schedule_at(t, lambda t=t: b.send("a", "data", -t))
    sim.run()
    # messages sent at 1.5 and 2.5 cross the severed link, both ways
    assert sorted(b.got) == [0.5, 3.5]
    assert sorted(a.got) == [-3.5, -0.5]
    assert injector.partitions and injector.heals
    assert not network.link_blocked("a", "b")
    assert not network.link_blocked("b", "a")


def test_asymmetric_partition_blocks_one_direction():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.partition("a", "b", at=1.0, duration=2.0, symmetric=False)
    sim.schedule_at(1.5, lambda: a.send("b", "data", "a->b"))
    sim.schedule_at(1.5, lambda: b.send("a", "data", "b->a"))
    sim.run()
    assert b.got == []
    assert a.got == ["b->a"]


def test_overlapping_partitions_do_not_heal_early():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.partition("a", "b", at=1.0, duration=2.0)
    injector.partition("a", "b", at=1.5, duration=0.5)  # ends at 2.0
    for t in (2.5, 3.5):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
    sim.run()
    # the first window holds until t=3.0 even though the second healed
    assert b.got == [3.5]
    assert not network.link_blocked("a", "b")


def test_partition_retries_reliable_kinds_until_heal():
    sim = Simulator(seed=3)
    network = Network(sim, reliable_kinds=("tcp",))
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    injector = FailureInjector(network)
    injector.partition("a", "b", at=0.0, duration=1.0)
    sim.schedule_at(0.5, lambda: a.send("b", "tcp", "session"))
    sim.schedule_at(0.5, lambda: a.send("b", "data", "datagram"))
    sim.run()
    # the TCP-like message is delayed across the partition, not lost
    assert b.got == ["session"]
    assert network.retried > 0
    assert network.dropped == 1


def test_reorder_window_scales_and_restores_jitter():
    sim, network, a, b = build()
    baseline = network.latency
    injector = FailureInjector(network)
    injector.reorder_window(at=1.0, duration=1.0, factor=50.0)
    observed = {}
    sim.schedule_at(1.5, lambda: observed.setdefault("during", network.latency))
    sim.schedule_at(3.0, lambda: observed.setdefault("after", network.latency))
    sim.run()
    assert observed["during"].jitter == baseline.jitter * 50.0
    assert observed["after"] == baseline


def test_overlapping_reorder_windows_restore_baseline():
    """Regression: the old capture-and-restore scheme re-imposed the
    first window's inflation forever once a second window overlapped."""
    sim, network, a, b = build()
    baseline = network.latency
    injector = FailureInjector(network)
    injector.reorder_window(at=1.0, duration=2.0, factor=10.0)  # [1, 3)
    injector.reorder_window(at=2.0, duration=2.0, factor=4.0)  # [2, 4)
    observed = {}
    sim.schedule_at(2.5, lambda: observed.setdefault("both", network.latency))
    sim.schedule_at(3.5, lambda: observed.setdefault("second", network.latency))
    sim.schedule_at(4.5, lambda: observed.setdefault("after", network.latency))
    sim.run()
    # the strongest open window governs, relative to the *baseline*
    assert observed["both"].jitter == baseline.jitter * 10.0
    assert observed["second"].jitter == baseline.jitter * 4.0
    assert observed["after"] == baseline


def test_overlapping_loss_and_dup_windows_restore_baseline():
    sim, network, a, b = build()
    injector = FailureInjector(network)
    injector.loss_window(at=1.0, duration=2.0, drop_prob=1.0)
    injector.loss_window(at=2.0, duration=2.0, drop_prob=0.5)
    injector.duplicate_window(at=1.0, duration=2.0, dup_prob=1.0)
    injector.duplicate_window(at=2.0, duration=2.0, dup_prob=0.5)
    observed = {}
    sim.schedule_at(
        2.5,
        lambda: observed.setdefault("both", (network.drop_prob, network.dup_prob)),
    )
    sim.schedule_at(
        3.5,
        lambda: observed.setdefault("second", (network.drop_prob, network.dup_prob)),
    )
    sim.run()
    assert observed["both"] == (1.0, 1.0)
    assert observed["second"] == (0.5, 0.5)
    assert network.drop_prob == 0.0
    assert network.dup_prob == 0.0


def test_reliable_sequencer_submissions_survive_reorder_plus_partition():
    """Regression for sequencer traffic under composite faults: reliable
    zk submissions crossing a partitioned link *during* a reorder burst
    are delayed (retried with the inflated latency), never lost, and the
    sequencer still assigns every value exactly one slot."""
    from repro.coord.zookeeper import install_zookeeper
    from repro.sim import LatencyModel, Network, Process, Simulator

    class Submitter(Process):
        def recv(self, msg):
            raise AssertionError(f"unexpected {msg.kind}")

    class Subscriber(Process):
        def __init__(self, name):
            super().__init__(name)
            self.deliveries = []

        def recv(self, msg):
            self.deliveries.append(msg.payload)

    sim = Simulator(seed=5)
    network = Network(
        sim,
        latency=LatencyModel(base=0.001, jitter=0.002),
        reliable_kinds=("zk.submit", "zk.deliver"),
    )
    zk = install_zookeeper(network)
    submitter = Submitter("client")
    subscriber = Subscriber("replica")
    network.register(submitter)
    network.register(subscriber)
    zk.subscribe("t", "replica")
    injector = FailureInjector(network)
    injector.reorder_window(at=0.0, duration=0.3, factor=25.0)
    injector.partition("client", "zookeeper", at=0.05, duration=0.2)
    for index in range(20):
        sim.schedule_at(
            0.01 * index,
            lambda i=index: submitter.send("zookeeper", "zk.submit", ("t", i)),
        )
    sim.run()
    # every submission sequenced exactly once, a contiguous range of slots
    assert network.latency.jitter == 0.002
    assert len(zk.trace.data_series("zk.order:t")) == 20
    seqs = sorted(seq for _topic, seq, _value in subscriber.deliveries)
    assert seqs == list(range(20))
    assert sorted(zk.committed_order("t")) == list(range(20))
    assert network.retried > 0


def test_permanent_crash_times_the_session_out_instead_of_hanging():
    """A crash with no recovery must end in visible loss, not a retry
    loop that keeps the simulator from ever quiescing."""
    sim = Simulator(seed=3)
    network = Network(
        sim, reliable_kinds=("tcp",), retry_crashed=True, retry_limit=20
    )
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    FailureInjector(network).crash("b", at=0.0)  # never recovers
    sim.schedule_at(0.5, lambda: a.send("b", "tcp", "session"))
    sim.run()  # terminates
    assert b.got == []
    assert network.retried == 20
    assert network.dropped == 1


def test_crashed_destination_retries_reliable_kinds_when_enabled():
    sim = Simulator(seed=3)
    network = Network(sim, reliable_kinds=("tcp",), retry_crashed=True)
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    injector = FailureInjector(network)
    injector.crash_for("b", at=0.0, duration=1.0)
    sim.schedule_at(0.5, lambda: a.send("b", "tcp", "session"))
    sim.schedule_at(0.5, lambda: a.send("b", "data", "datagram"))
    sim.run()
    # the session resumes after the peer restarts; the datagram is gone
    assert b.got == ["session"]
    assert network.retried > 0
    assert network.dropped == 1


# ----------------------------------------------------------------------
# inputs are checked where a fault is armed, not inside the event loop:
# one test per entry point.  Before the checks a NaN drove ``sim.now`` to
# NaN, a negative duration raised "cannot schedule into the past" only
# once the window opened, an out-of-range probability passed silently,
# and ``crash_for`` raised with the crash already armed, so the process
# stayed down for the rest of the run.
# ----------------------------------------------------------------------
def armed():
    sim, network, _a, _b = build()
    return sim, network, FailureInjector(network)


def assert_no_fault_left(network) -> None:
    assert not any(process.crashed for process in network.processes)
    assert (network.drop_prob, network.dup_prob) == (0.0, 0.0)
    assert not network._blocked_links


def assert_nothing_armed(sim, network) -> None:
    assert sim.pending == 0
    sim.run()  # nothing fires, nothing raises, the clock stays put
    assert sim.now == 0.0
    assert_no_fault_left(network)


@pytest.mark.parametrize("at", [-1.0, NAN, INF])
def test_crash_rejects_a_bad_time(at):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.crash("a", at)
    assert_nothing_armed(sim, network)


@pytest.mark.parametrize("at", [-1.0, NAN, INF])
def test_recover_rejects_a_bad_time(at):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.recover("a", at)
    assert_nothing_armed(sim, network)


@pytest.mark.parametrize(
    "at, duration", [(0.1, -1.0), (0.1, NAN), (0.1, INF), (NAN, 1.0), (-0.1, 1.0)]
)
def test_crash_for_rejects_bad_inputs_before_arming_the_crash(at, duration):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.crash_for("a", at, duration)
    assert_nothing_armed(sim, network)
    assert faults.crashes == []


@pytest.mark.parametrize(
    "at, duration, drop_prob",
    [(0.1, NAN, 0.5), (0.1, -0.2, 0.5), (NAN, 0.2, 0.5), (0.1, 0.2, 1.5),
     (0.1, 0.2, -0.1), (0.1, 0.2, NAN)],
)
def test_loss_window_rejects_bad_inputs_where_it_is_armed(at, duration, drop_prob):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.loss_window(at, duration, drop_prob)
    assert_nothing_armed(sim, network)


@pytest.mark.parametrize(
    "at, duration, dup_prob",
    [(0.1, -0.2, 0.5), (0.1, INF, 0.5), (0.1, 0.2, -0.2), (0.1, 0.2, NAN)],
)
def test_duplicate_window_rejects_bad_inputs_where_it_is_armed(at, duration, dup_prob):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.duplicate_window(at, duration, dup_prob)
    assert_nothing_armed(sim, network)


@pytest.mark.parametrize(
    "at, duration, factor",
    [(0.1, 0.2, -3.0), (0.1, 0.2, NAN), (0.1, 0.2, INF), (0.1, -0.2, 2.0)],
)
def test_reorder_window_rejects_bad_inputs_where_it_is_armed(at, duration, factor):
    sim, network, faults = armed()
    latency = network.latency
    with pytest.raises(SimulationError):
        faults.reorder_window(at, duration, factor)
    assert_nothing_armed(sim, network)
    assert network.latency is latency


@pytest.mark.parametrize("at, duration", [(0.1, -0.2), (0.1, NAN), (NAN, 0.2), (-1.0, 0.2)])
def test_partition_rejects_bad_inputs_where_it_is_armed(at, duration):
    sim, network, faults = armed()
    with pytest.raises(SimulationError):
        faults.partition("a", "b", at, duration)
    assert_nothing_armed(sim, network)
    assert faults.partitions == []


def test_valid_windows_still_open_and_close():
    sim, network, faults = armed()
    faults.crash_for("a", 0.1, 0.2)
    faults.loss_window(0.1, 0.2, 1.0)
    faults.duplicate_window(0.1, 0.2, 0.0)
    faults.reorder_window(0.1, 0.2, 0.0)
    faults.partition("a", "b", 0.1, 0.0)
    latency = network.latency
    sim.run()
    assert sim.now == pytest.approx(0.3)
    assert_no_fault_left(network)
    assert network.latency == latency
    assert len(faults.crashes) == len(faults.recoveries) == 1
