"""The telemetry hub: the ledger's tallies and runtime attachment."""

from __future__ import annotations

from repro.obs.telemetry import Telemetry
from repro.sim import make_simulator, run_scope
from repro.sim.network import LatencyModel, Network, Process


class _Sink(Process):
    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.got = []

    def recv(self, msg) -> None:
        self.got.append(msg)


def test_tallies():
    hub = Telemetry()
    assert hub.tallies() == {
        "planes": {},
        "kinds": {},
        "topics": {},
        "decisions": {},
        "decision_topics": {},
    }
    hub.note_send("seal.punct", ("clicks", 0, "p0", "s0"))
    hub.note_send("seal.punct", ("clicks", 1, "p0", "s0"))
    hub.note_send("st.ack", 3)
    hub.note_decision("seal_vote", topic="seal:clicks")
    hub.note_decision("replay")
    assert hub.tallies() == {
        "planes": {"coordination": 2, "delivery": 1},
        "kinds": {"seal.punct": 2, "st.ack": 1},
        "topics": {"seal:clicks": 2},
        "decisions": {"seal_vote": 1, "replay": 1},
        "decision_topics": {"seal_vote:seal:clicks": 1},
    }
    # a send after a read is folded on the next read
    hub.note_send("st.ack", 4)
    assert hub.tallies()["planes"]["delivery"] == 2
    assert hub.sim_time_overhead == 0.0


def test_network_reports_sends_and_deliveries_through_the_hub():
    hub = Telemetry(spans=True)
    with run_scope(hub):
        sim = make_simulator(seed=0)
    net = Network(sim, latency=LatencyModel(base=0.001, jitter=0.0))
    net.register(_Sink("a"))
    net.register(_Sink("b"))
    net.process("a").send("b", "zk.submit", ("orders", ("row", 1)))
    net.process("a").send("b", "anything.else", None)
    sim.run()
    tallies = hub.tallies()
    assert tallies["planes"] == {"coordination": 1, "data": 1}
    assert tallies["kinds"]["zk.submit"] == 1
    assert tallies["topics"] == {"order:orders": 1}
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
    tallies = hub.tallies()
    assert tallies["decisions"] == {"sequencer": 1, "retry": 1}
    assert tallies["decision_topics"] == {"sequencer:orders": 1, "retry:st.chan": 1}
    assert hub.sim_time_overhead == 0.005
    assert hub.spans.events == [(1.5, "topic:orders", "sequencer", "zk", "seq=0")]
