"""Unit tests for fault injection: schedule faults armed on a network."""

from __future__ import annotations

import math

import pytest

from repro.chaos.schedule import Crash, Duplicate, FaultSchedule, Loss, Partition, Reorder
from repro.errors import SimulationError
from repro.sim import Network, Process, Simulator, faultpolicy

NAN = math.nan
INF = math.inf


def arm(network, *faults) -> None:
    """Arm ``faults`` on ``network`` as one schedule; a fault's role is
    the name of its process (the index is ignored)."""
    FaultSchedule("test", faults).apply(network, lambda name, _index: name)


def probe(sim, times, read):
    """Record ``read()`` at each virtual time in ``times``."""
    seen = {}
    for t in times:
        sim.schedule_at(t, lambda t=t: seen.setdefault(t, read()))
    return seen


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
    arm(network, Crash("b", 0, at=1.0, duration=2.0))
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
    down = probe(sim, (0.5, 1.5, 2.5, 3.5), lambda: b.crashed)
    sim.run()
    # messages sent at 1.5 and 2.5 land inside the crash window
    assert all(p < 1.0 or p > 3.0 for p in b.got)
    assert len(b.got) == 2
    assert down == {0.5: False, 1.5: True, 2.5: True, 3.5: False}


def test_overlapping_crashes_keep_the_process_down():
    """A process stays down while any of its crash windows is open: the
    inner window closing at 0.3 must not bring it back before 0.6."""
    sim, network, a, b = build()
    arm(network, Crash("b", 0, at=0.1, duration=0.5), Crash("b", 0, at=0.2, duration=0.1))
    for t in (0.4, 0.7):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
    down = probe(sim, (0.15, 0.25, 0.4, 0.55, 0.7), lambda: b.crashed)
    sim.run()
    assert down == {0.15: True, 0.25: True, 0.4: True, 0.55: True, 0.7: False}
    assert b.got == [0.7]


def test_loss_window_restores_previous_probability():
    sim, network, a, b = build()
    arm(network, Loss(at=1.0, duration=1.0, drop_prob=1.0))
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
    arm(network, Duplicate(at=1.0, duration=1.0, dup_prob=1.0))
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
    arm(network, Partition("a", 0, "b", 0, at=1.0, duration=2.0))
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(t, lambda t=t: a.send("b", "data", t))
        sim.schedule_at(t, lambda t=t: b.send("a", "data", -t))
    blocked = probe(
        sim, (0.5, 1.5, 3.5), lambda: (network.link_blocked("a", "b"), network.link_blocked("b", "a"))
    )
    sim.run()
    # messages sent at 1.5 and 2.5 cross the severed link, both ways
    assert sorted(b.got) == [0.5, 3.5]
    assert sorted(a.got) == [-3.5, -0.5]
    assert blocked == {0.5: (False, False), 1.5: (True, True), 3.5: (False, False)}


def test_asymmetric_partition_blocks_one_direction():
    sim, network, a, b = build()
    arm(network, Partition("a", 0, "b", 0, at=1.0, duration=2.0, symmetric=False))
    sim.schedule_at(1.5, lambda: a.send("b", "data", "a->b"))
    sim.schedule_at(1.5, lambda: b.send("a", "data", "b->a"))
    sim.run()
    assert b.got == []
    assert a.got == ["b->a"]


def test_overlapping_partitions_do_not_heal_early():
    sim, network, a, b = build()
    arm(
        network,
        Partition("a", 0, "b", 0, at=1.0, duration=2.0),
        Partition("a", 0, "b", 0, at=1.5, duration=0.5),  # ends at 2.0
    )
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
    arm(network, Partition("a", 0, "b", 0, at=0.0, duration=1.0))
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
    arm(network, Reorder(at=1.0, duration=1.0, factor=50.0))
    observed = probe(sim, (1.5, 3.0), lambda: network.latency)
    sim.run()
    assert observed[1.5].jitter == baseline.jitter * 50.0
    assert observed[3.0] == baseline


def test_overlapping_reorder_windows_restore_baseline():
    """Regression: the old capture-and-restore scheme re-imposed the
    first window's inflation forever once a second window overlapped."""
    sim, network, a, b = build()
    baseline = network.latency
    arm(
        network,
        Reorder(at=1.0, duration=2.0, factor=10.0),  # [1, 3)
        Reorder(at=2.0, duration=2.0, factor=4.0),  # [2, 4)
    )
    observed = probe(sim, (2.5, 3.5, 4.5), lambda: network.latency)
    sim.run()
    # the strongest open window governs, relative to the *baseline*
    assert observed[2.5].jitter == baseline.jitter * 10.0
    assert observed[3.5].jitter == baseline.jitter * 4.0
    assert observed[4.5] == baseline


def test_overlapping_loss_and_dup_windows_restore_baseline():
    sim, network, a, b = build()
    arm(
        network,
        Loss(at=1.0, duration=2.0, drop_prob=1.0),
        Loss(at=2.0, duration=2.0, drop_prob=0.5),
        Duplicate(at=1.0, duration=2.0, dup_prob=1.0),
        Duplicate(at=2.0, duration=2.0, dup_prob=0.5),
    )
    observed = probe(sim, (2.5, 3.5), lambda: (network.drop_prob, network.dup_prob))
    sim.run()
    assert observed[2.5] == (1.0, 1.0)
    assert observed[3.5] == (0.5, 0.5)
    assert network.drop_prob == 0.0
    assert network.dup_prob == 0.0


def test_reliable_sequencer_submissions_survive_reorder_plus_partition():
    """Regression for sequencer traffic under composite faults: reliable
    zk submissions crossing a partitioned link *during* a reorder burst
    are delayed (retried with the inflated latency), never lost, and the
    sequencer still assigns every value exactly one slot."""
    from repro.coord.zookeeper import install_zookeeper, recorded_order
    from repro.sim import LatencyModel

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
    arm(
        network,
        Reorder(at=0.0, duration=0.3, factor=25.0),
        Partition("client", 0, "zookeeper", 0, at=0.05, duration=0.2),
    )
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
    assert sorted(recorded_order(zk.trace, "t")) == list(range(20))
    assert network.retried > 0


def test_permanent_crash_times_the_session_out_instead_of_hanging(monkeypatch):
    """A crash with no recovery must end in visible loss, not a retry
    loop that keeps the simulator from ever quiescing."""
    monkeypatch.setattr(faultpolicy, "RETRY_LIMIT", 20)
    sim = Simulator(seed=3)
    network = Network(sim, reliable_kinds=("tcp",), retry_crashed=True)
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    b.crashed = True  # never recovers
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
    arm(network, Crash("b", 0, at=0.0, duration=1.0))
    sim.schedule_at(0.5, lambda: a.send("b", "tcp", "session"))
    sim.schedule_at(0.5, lambda: a.send("b", "data", "datagram"))
    sim.run()
    # the session resumes after the peer restarts; the datagram is gone
    assert b.got == ["session"]
    assert network.retried > 0
    assert network.dropped == 1


# ----------------------------------------------------------------------
# inputs are checked where a fault is built, so a bad one never reaches
# the event loop: one test per fault kind.  Unchecked, a NaN drove
# ``sim.now`` to NaN, a negative duration raised "cannot schedule into
# the past" only once the window opened, and an out-of-range
# probability passed silently.
# ----------------------------------------------------------------------
def assert_no_fault_left(network) -> None:
    assert not any(process.crashed for process in network.processes)
    assert (network.drop_prob, network.dup_prob) == (0.0, 0.0)
    assert not network._blocked_links


def assert_rejected(build_fault) -> None:
    """Building the fault raises, and nothing is armed or left behind."""
    sim, network, _a, _b = build()
    latency = network.latency
    with pytest.raises(SimulationError):
        arm(network, build_fault())
    assert sim.pending == 0
    sim.run()  # nothing fires, nothing raises, the clock stays put
    assert sim.now == 0.0
    assert_no_fault_left(network)
    assert network.latency is latency


@pytest.mark.parametrize("at", [-1.0, NAN, INF])
def test_crash_rejects_a_bad_time(at):
    assert_rejected(lambda: Crash("a", 0, at, 0.0))


@pytest.mark.parametrize("duration", [-1.0, NAN, INF])
def test_crash_rejects_a_bad_recovery_time(duration):
    assert_rejected(lambda: Crash("a", 0, 0.1, duration))


@pytest.mark.parametrize(
    "at, duration", [(0.1, -1.0), (0.1, NAN), (0.1, INF), (NAN, 1.0), (-0.1, 1.0)]
)
def test_crash_rejects_bad_inputs_where_it_is_built(at, duration):
    assert_rejected(lambda: Crash("a", 0, at, duration))


@pytest.mark.parametrize(
    "at, duration, drop_prob",
    [(0.1, NAN, 0.5), (0.1, -0.2, 0.5), (NAN, 0.2, 0.5), (0.1, 0.2, 1.5),
     (0.1, 0.2, -0.1), (0.1, 0.2, NAN)],
)
def test_loss_rejects_bad_inputs_where_it_is_built(at, duration, drop_prob):
    assert_rejected(lambda: Loss(at, duration, drop_prob))


@pytest.mark.parametrize(
    "at, duration, dup_prob",
    [(0.1, -0.2, 0.5), (0.1, INF, 0.5), (0.1, 0.2, -0.2), (0.1, 0.2, NAN)],
)
def test_duplicate_rejects_bad_inputs_where_it_is_built(at, duration, dup_prob):
    assert_rejected(lambda: Duplicate(at, duration, dup_prob))


@pytest.mark.parametrize(
    "at, duration, factor",
    [(0.1, 0.2, -3.0), (0.1, 0.2, NAN), (0.1, 0.2, INF), (0.1, -0.2, 2.0)],
)
def test_reorder_rejects_bad_inputs_where_it_is_built(at, duration, factor):
    assert_rejected(lambda: Reorder(at, duration, factor))


@pytest.mark.parametrize("at, duration", [(0.1, -0.2), (0.1, NAN), (NAN, 0.2), (-1.0, 0.2)])
def test_partition_rejects_bad_inputs_where_it_is_built(at, duration):
    assert_rejected(lambda: Partition("a", 0, "b", 0, at, duration))


def test_valid_windows_still_open_and_close():
    sim, network, a, _b = build()
    latency = network.latency
    arm(
        network,
        Crash("a", 0, 0.1, 0.2),
        Loss(0.1, 0.2, 1.0),
        Duplicate(0.1, 0.2, 0.0),
        Reorder(0.1, 0.2, 0.0),
        Partition("a", 0, "b", 0, 0.1, 0.0),
    )
    down = probe(sim, (0.2,), lambda: a.crashed)
    sim.run()
    assert sim.now == pytest.approx(0.3)
    assert_no_fault_left(network)
    assert network.latency == latency
    assert down == {0.2: True}
