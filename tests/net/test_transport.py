"""Property tests for the TCP transport: FIFO sessions, fault recovery.

These run real sockets on the loopback interface, with the virtual clock
mapped 1:1 onto wall time (``time_scale=1.0``) so fault windows are wide
relative to loopback jitter.
"""

from __future__ import annotations

from repro.chaos.schedule import Crash, Loss, Partition
from repro.net.context import NetConfig
from repro.net.services import NetSimulator
from repro.net.transport import TcpTransport
from repro.sim.network import LatencyModel, Process, make_network
from tests.sim.test_failure import arm

CFG = NetConfig(time_scale=1.0)


class Sink(Process):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def recv(self, msg):
        self.got.append(msg.payload)


class Streamer(Process):
    """Emits ``count`` sequenced messages, one every ``gap`` of virtual time."""

    def __init__(self, name, dst, count, gap=0.004, kind="data"):
        super().__init__(name)
        self.dst = dst
        self.count = count
        self.gap = gap
        self.kind = kind
        self._next = 0

    def on_start(self):
        self._emit()

    def _emit(self):
        if self._next >= self.count:
            return
        self.send(self.dst, self.kind, self._next)
        self._next += 1
        self.after(self.gap, self._emit)

    def recv(self, msg):  # pragma: no cover - sink only
        pass


def build(seed=7, **net_kwargs):
    sim = NetSimulator(seed=seed, config=CFG)
    net = make_network(
        sim, latency=LatencyModel(base=0.002, jitter=0.004), **net_kwargs
    )
    return sim, net


def test_reliable_kind_is_fifo_under_jitter():
    """Per-(src, dst, kind) FIFO for reliable kinds, despite heavy jitter.

    The latency model draws an exponential jitter per send, so wall-clock
    deadlines frequently invert; the session layer must still deliver in
    send order.
    """
    sim, net = build(reliable_kinds=("data",))
    net.register(Streamer("a", "b", 30, gap=0.001))
    b = net.register(Sink("b"))
    net.start()
    sim.run()
    assert b.got == list(range(30))
    assert net.delivered == 30


def test_partition_heals_with_no_residual_loss():
    """Reliable traffic crossing a partition is retried until the heal.

    Sends straddle a 60ms severed-link window; every message must arrive
    exactly once after the link heals, and the retry counter must show
    the transport actually fought through the outage.
    """
    sim, net = build(reliable_kinds=("data",))
    net.register(Streamer("a", "b", 25, gap=0.005))
    b = net.register(Sink("b"))
    arm(net, Partition("a", 0, "b", 0, at=0.03, duration=0.06))
    net.start()
    sim.run()
    assert sorted(b.got) == list(range(25))
    assert len(b.got) == 25  # exactly once: no duplicates slip through
    assert net.dropped == 0
    assert net.retried > 0


def test_partition_drops_unreliable_traffic():
    sim, net = build()
    net.register(Streamer("a", "b", 25, gap=0.005))
    b = net.register(Sink("b"))
    arm(net, Partition("a", 0, "b", 0, at=0.03, duration=0.06))
    net.start()
    sim.run()
    assert 0 < len(b.got) < 25  # the window ate the middle of the stream
    assert net.dropped == 25 - len(b.got)
    assert len(set(b.got)) == len(b.got)  # no duplicates (order may jitter)


def test_crash_restart_redelivers_exactly_once():
    """A reliable session survives a peer restart (``retry_crashed``).

    The receiver crashes mid-stream and recovers; the runtime tears its
    endpoint down and rebinds the same port.  Held frames must be
    redelivered after recovery with no loss and no duplicates.
    """
    sim, net = build(reliable_kinds=("data",), retry_crashed=True)
    net.register(Streamer("a", "b", 20, gap=0.006))
    b = net.register(Sink("b"))
    arm(net, Crash("b", 0, at=0.04, duration=0.05))
    net.start()
    sim.run()
    assert sorted(b.got) == list(range(20))
    assert len(b.got) == 20
    assert net.dropped == 0


def test_crashes_of_two_milliseconds_still_restart_the_endpoint(monkeypatch):
    """Crash actuation is exact: the pump looks at the ``crashed`` flags
    after every callback, so a window far shorter than any polling
    cadence is still a real teardown and a rebind of the same port."""
    actuated = []
    for verb in ("pause_node", "resume_node"):
        inner = getattr(TcpTransport, verb)

        def spy(transport, name, verb=verb, inner=inner):
            actuated.append((verb, name))
            inner(transport, name)

        monkeypatch.setattr(TcpTransport, verb, spy)
    sim, net = build(reliable_kinds=("data",), retry_crashed=True)
    net.register(Streamer("a", "b", 20, gap=0.006))
    b = net.register(Sink("b"))
    arm(net, *(Crash("b", 0, at=at, duration=0.002) for at in (0.03, 0.05, 0.07)))
    net.start()
    sim.run()
    assert actuated == [("pause_node", "b"), ("resume_node", "b")] * 3
    assert net.transport_summary()["reconnects"] >= 1
    assert sorted(b.got) == list(range(20))
    assert len(b.got) == 20  # exactly once
    assert net.dropped == 0


def test_crash_without_retry_sessions_loses_in_flight():
    sim, net = build(retry_crashed=False)
    net.register(Streamer("a", "b", 20, gap=0.006))
    b = net.register(Sink("b"))
    arm(net, Crash("b", 0, at=0.04, duration=0.05))
    net.start()
    sim.run()
    # Frames sitting in a TCP buffer when the endpoint aborts vanish
    # without crossing the drop policy, so conservation is one-sided.
    assert len(b.got) < 20
    assert net.dropped > 0
    assert len(b.got) + net.dropped <= 20


def test_loss_window_compiled_to_wall_clock():
    """A loss window from the schedule DSL actuates on the live transport."""
    sim, net = build()
    net.register(Streamer("a", "b", 30, gap=0.004))
    b = net.register(Sink("b"))
    arm(net, Loss(at=0.03, duration=0.05, drop_prob=1.0))
    net.start()
    sim.run()
    assert 0 < len(b.got) < 30
    assert net.dropped == 30 - len(b.got)


def test_until_ends_a_run_with_traffic_still_flowing():
    """A bounded run stops *at* the bound, as the DES does, though the
    stream's later sends are still on the heap."""
    sim, net = build()
    net.register(Streamer("a", "b", 30, gap=0.004))
    b = net.register(Sink("b"))
    net.start()
    assert sim.run(until=0.05) == 0.05
    assert 0 < len(b.got) < 30
    assert sim.pending >= 1
