"""Unit tests for the Zookeeper-like sequencer and znode store."""

from __future__ import annotations

from repro.coord import ZkClient, install_zookeeper
from repro.coord.zookeeper import DELIVER, recorded_order
from repro.obs.telemetry import Telemetry
from repro.sim import LatencyModel, Network, Process, make_simulator, run_scope


class Subscriber(Process):
    def __init__(self, name):
        super().__init__(name)
        self.deliveries = []

    def recv(self, msg):
        assert msg.kind == DELIVER
        self.deliveries.append(msg.payload)


class Client(Process):
    def __init__(self, name):
        super().__init__(name)
        self.zk = ZkClient(self)
        self.got = []

    def recv(self, msg):
        if self.zk.handle(msg):
            return

    def on_start(self):
        pass


def build(seed=0):
    """A service on a network whose simulator reports to a telemetry hub
    (``sim.telemetry``)."""
    with run_scope(Telemetry()):
        sim = make_simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(0.001, 0.002))
    zk = install_zookeeper(network)
    return sim, network, zk


def test_sequencer_assigns_dense_sequence_numbers():
    sim, network, zk = build()
    sub = Subscriber("sub")
    network.register(sub)
    zk.subscribe("t", "sub")
    client = Client("c1")
    network.register(client)
    sim.schedule(0.0, lambda: [client.zk.submit("t", f"v{i}") for i in range(5)])
    sim.run()
    seqs = sorted(seq for _, seq, _ in sub.deliveries)
    assert seqs == list(range(5))
    # each value sequenced once, in the order the trace recorded
    assert sorted(recorded_order(zk.trace, "t")) == [f"v{i}" for i in range(5)]
    assert [seq for seq, _ in zk.trace.data_series("zk.order:t")] == list(range(5))
    tallies = sim.telemetry.tallies()
    assert tallies["decisions"]["sequencer"] == 5
    assert tallies["kinds"]["zk.deliver"] == 5


def test_all_subscribers_get_every_delivery():
    sim, network, zk = build()
    subs = [Subscriber(f"s{i}") for i in range(3)]
    for sub in subs:
        network.register(sub)
        zk.subscribe("t", sub.name)
    client = Client("c1")
    network.register(client)
    sim.schedule(0.0, lambda: [client.zk.submit("t", i) for i in range(4)])
    sim.run()
    for sub in subs:
        assert sorted(v for _, _, v in sub.deliveries) == [0, 1, 2, 3]
    # every replica observes the same (seq -> value) assignment
    orders = [
        {seq: v for _, seq, v in sub.deliveries} for sub in subs
    ]
    assert orders[0] == orders[1] == orders[2]


def test_topics_have_independent_sequences():
    sim, network, zk = build()
    sub = Subscriber("sub")
    network.register(sub)
    zk.subscribe("t1", "sub")
    zk.subscribe("t2", "sub")
    client = Client("c1")
    network.register(client)
    sim.schedule(0.0, lambda: (client.zk.submit("t1", "a"), client.zk.submit("t2", "b")))
    sim.run()
    by_topic = {t: seq for t, seq, _ in sub.deliveries}
    assert by_topic == {"t1": 0, "t2": 0}


def test_writes_serialize_through_the_leader():
    """N writes take at least N * write_service virtual seconds."""
    sim, network, zk = build()
    sub = Subscriber("sub")
    network.register(sub)
    zk.subscribe("t", "sub")
    client = Client("c1")
    network.register(client)
    n = 50
    sim.schedule(0.0, lambda: [client.zk.submit("t", i) for i in range(n)])
    finish = sim.run()
    assert finish >= n * zk.write_service


def test_get_of_missing_znode_returns_none():
    sim, network, zk = build()
    client = Client("c1")
    network.register(client)
    sim.schedule(0.0, lambda: client.zk.get_znode("nope", client.got.append))
    sim.run()
    assert client.got == [None]


def test_preload_znode_visible_to_clients():
    sim, network, zk = build()
    zk.preload_znode("producers/p1", ["a", "b"])
    client = Client("c1")
    network.register(client)
    sim.schedule(0.0, lambda: client.zk.get_znode("producers/p1", client.got.append))
    sim.run()
    assert client.got == [["a", "b"]]
    assert zk._znodes.get("producers/p1") == ["a", "b"]
