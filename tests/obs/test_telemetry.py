"""The telemetry hub: instruments, scoping, and runtime attachment."""

from __future__ import annotations

from repro.obs.telemetry import Telemetry, activate, current
from repro.sim import make_simulator
from repro.sim.network import LatencyModel, Network, Process


class _Sink(Process):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.got = []

    def recv(self, msg) -> None:
        self.got.append(msg)


def test_counters():
    hub = Telemetry()
    hub.count("hits", "a")
    hub.count("hits", "a", by=2)
    hub.count("hits", "b")
    assert hub.counter("hits")["a"] == 3
    assert hub.total("hits") == 4
    assert hub.counter("never") == {}
    assert hub.snapshot() == {
        "counters": {"hits": {"a": 3, "b": 1}},
        "sim_time_overhead": 0.0,
    }


def test_current_is_none_by_default_and_nests():
    assert current() is None
    outer, inner = Telemetry(), Telemetry()
    with activate(outer):
        assert current() is outer
        with inner.activate():
            assert current() is inner
        assert current() is outer
    assert current() is None


def test_activation_survives_exceptions():
    hub = Telemetry()
    try:
        with hub.activate():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert current() is None


def test_make_simulator_attaches_active_hub():
    assert make_simulator(seed=0).telemetry is None
    hub = Telemetry()
    with hub.activate():
        sim = make_simulator(seed=0)
    assert sim.telemetry is hub
    # attachment is by reference at build time, not re-resolved later
    assert make_simulator(seed=0).telemetry is None


def test_profiler_rides_the_hub_onto_the_simulator():
    profiler_marker = object()
    hub = Telemetry(profiler=profiler_marker)
    with hub.activate():
        sim = make_simulator(seed=0)
    assert sim.profiler is profiler_marker


def test_network_reports_sends_and_deliveries_through_the_hub():
    hub = Telemetry(spans=True)
    with hub.activate():
        sim = make_simulator(seed=0)
    net = Network(sim, latency=LatencyModel(base=0.001, jitter=0.0))
    net.register(_Sink("a"))
    net.register(_Sink("b"))
    net.process("a").send("b", "zk.submit", ("orders", ("row", 1)))
    net.process("a").send("b", "anything.else", None)
    sim.run()
    planes = hub.counter("messages.plane")
    assert planes["coordination"] == 1
    assert planes["data"] == 1
    assert hub.counter("messages.kind")["zk.submit"] == 1
    assert hub.counter("messages.topic")["order:orders"] == 1
    # deliveries fed the span tracker
    assert hub.spans is not None and len(hub.spans.events) == 2


def test_note_decision_accrues_overhead_and_spans():
    hub = Telemetry(spans=True)
    hub.note_decision(
        "sequencer",
        topic="orders",
        overhead=0.005,
        lineage="topic:orders",
        node="zk",
        time=1.5,
        detail="seq=0",
    )
    hub.note_decision("retry", topic="st.chan")
    assert hub.counter("decisions")["sequencer"] == 1
    assert hub.counter("decisions.topic")["sequencer:orders"] == 1
    assert hub.sim_time_overhead == 0.005
    assert hub.spans.events == [(1.5, "topic:orders", "sequencer", "zk", "seq=0")]
