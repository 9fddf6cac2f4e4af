"""Behavior tests for the socket runtime: lifecycle, clock, quiescence."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import SimulationError
from repro.net import frames
from repro.net.context import NetConfig
from repro.net.services import NetSimulator, SocketTimeout
from repro.sim.network import LatencyModel, Process, make_network

CFG = NetConfig(time_scale=0.5)


class Recorder(Process):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def recv(self, msg):
        self.got.append((msg.kind, msg.payload))


class Pinger(Recorder):
    def __init__(self, name, dst, count):
        super().__init__(name)
        self.dst = dst
        self.count = count

    def on_start(self):
        for i in range(self.count):
            self.send(self.dst, "ping", i)


def build(config=CFG, **net_kwargs):
    sim = NetSimulator(seed=7, config=config)
    net = make_network(
        sim, latency=LatencyModel(base=0.002, jitter=0.003), **net_kwargs
    )
    return sim, net


def test_run_to_quiescence_delivers_everything():
    sim, net = build()
    a = net.register(Pinger("a", "b", 6))
    b = net.register(Recorder("b"))
    net.start()
    final = sim.run()
    # unreliable kind: each delivered exactly once, in any order
    assert sorted(payload for _, payload in b.got) == list(range(6))
    assert net.sent == 6 and net.delivered == 6 and net.dropped == 0
    assert final > 0.0
    assert sim.now == final  # clock frozen at the final virtual time
    assert sim.fired >= 6


def test_prestart_timers_and_wakers_fire():
    sim, net = build()
    a = net.register(Recorder("a"))
    net.register(Recorder("b"))
    fired = []
    sim.schedule(0.01, lambda: fired.append("timer"))
    sim.post(0.02, lambda: a.send("b", "late", "x"))
    waker = sim.waker(0.005, lambda: fired.append("waker"))
    waker.arm()
    net.start()
    sim.run()
    assert "timer" in fired and "waker" in fired
    assert net.process("b").got == [("late", "x")]


def test_cancelled_timer_does_not_fire():
    sim, net = build()
    net.register(Recorder("a"))
    fired = []
    handle = sim.schedule(0.01, lambda: fired.append("no"))
    sim.schedule(0.02, lambda: fired.append("yes"))
    handle.cancel()
    assert sim.pending == 1
    sim.run()
    assert fired == ["yes"]


def test_negative_delay_rejected():
    sim, _ = build()
    with pytest.raises(SimulationError, match="past"):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError, match="past"):
        sim.post(-0.1, lambda: None)


def test_socket_simulator_runs_once():
    sim, net = build()
    net.register(Recorder("a"))
    sim.run()
    with pytest.raises(SimulationError, match="once"):
        sim.run()


def test_callback_exception_propagates():
    sim, net = build()
    net.register(Recorder("a"))

    def boom():
        raise ValueError("from inside the loop")

    sim.schedule(0.005, boom)
    with pytest.raises(ValueError, match="from inside the loop"):
        sim.run()


def test_undecodable_frame_aborts_the_run(monkeypatch):
    """A failure on the receive path (inside the endpoint's reader task,
    not a timer callback) still ends the run, with that exception."""
    sim, net = build()
    net.register(Pinger("a", "b", 1))
    b = net.register(Recorder("b"))
    monkeypatch.setattr(frames, "encode_value", lambda value: {"!": "zz"})
    net.start()
    with pytest.raises(SimulationError, match="unknown frame tag 'zz'"):
        sim.run()
    assert b.got == []


def test_timeout_raises_with_forensics():
    sim, net = build(NetConfig(time_scale=0.5, timeout=0.05))
    a = net.register(Pinger("a", "b", 2))
    net.register(Recorder("b"))

    # an endless virtual tick loop: the run can never quiesce
    def tick():
        sim.post(0.01, tick)

    sim.post(0.01, tick)
    net.start()
    with pytest.raises(SocketTimeout) as err:
        sim.run()
    assert err.value.timeout == 0.05
    assert err.value.virtual_time > 0.0
    assert err.value.pending >= 1


def test_until_bounds_virtual_time():
    sim, net = build()
    net.register(Recorder("a"))
    fired = []
    sim.schedule(0.01, lambda: fired.append("early"))
    sim.schedule(10.0, lambda: fired.append("far"))  # far beyond the bound
    final = sim.run(until=0.05)
    assert fired == ["early"]
    assert final == 0.05
    assert sim.pending == 1  # the far timer is still pending, as in the DES


def test_max_events_bounds_fired_events():
    sim, net = build()
    net.register(Recorder("a"))

    def tick():
        sim.post(0.001, tick)

    sim.post(0.001, tick)
    sim.run(max_events=5)
    assert sim.fired == 5
    assert sim.pending == 1


def test_sends_before_the_run_wait_for_the_transport():
    sim, net = build()
    a = net.register(Recorder("a"))
    b = net.register(Recorder("b"))
    a.send("b", "early", "x")  # no transport yet: buffered, flushed at start
    sim.run()
    assert b.got == [("early", "x")]
    assert net.sent == 1 and net.delivered == 1


def test_reliable_sends_are_exempt_from_loss():
    sim, net = build(drop_prob=1.0, reliable_kinds=("ping",))
    net.register(Pinger("a", "b", 5))
    b = net.register(Recorder("b"))
    net.start()
    sim.run()
    assert len(b.got) == 5
    assert net.dropped == 0


def test_unreliable_sends_can_be_lost():
    sim, net = build(drop_prob=1.0)
    net.register(Pinger("a", "b", 5))
    b = net.register(Recorder("b"))
    net.start()
    sim.run()
    assert b.got == []
    assert net.dropped == 5


def test_transport_summary_in_metrics_shape():
    sim, net = build()
    net.register(Pinger("a", "b", 3))
    net.register(Recorder("b"))
    net.start()
    sim.run()
    summary = net.transport_summary()
    assert summary["codec"] == "json"
    assert summary["nodes"] == 2
    assert summary["frames_sent"] >= 3


def test_a_delivery_scheduled_outside_the_pump_wakes_it():
    """A frame reaches the heap from the endpoint reader's callback
    (``SocketNetwork.ingest`` -> ``post_at``), outside the pump.  The
    pump is asleep towards its next deadline — a far timer here — and
    must be woken for the earlier delivery, not find it at that
    deadline."""
    sim, net = build()
    net.register(Recorder("a"))
    arrivals = []

    class Clocked(Recorder):
        def recv(self, msg):
            arrivals.append(sim.now)

    net.register(Clocked("b"))
    far = 1.0  # virtual seconds: half a wall second at this time scale
    sim.schedule(far, lambda: None)

    def reader_callback():
        now = sim.now
        net.ingest(
            {
                "src": "a", "dst": "b", "kind": "ping",
                "payload": frames.encode_value(1), "uid": 1,
                "sent": now, "at": now + 0.01,
            }
        )

    # runs from the event loop once the pump is asleep, like a reader task
    sim.schedule(0.01, lambda: asyncio.get_running_loop().call_soon(reader_callback))
    sim.run()
    assert len(arrivals) == 1
    assert arrivals[0] < far / 2, f"delivered at {arrivals[0]}: the pump slept through it"
