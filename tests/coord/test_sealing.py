"""Unit tests for the seal protocol."""

from __future__ import annotations

import pytest

from repro.coord import DATA, SealManager, SealedStreamProducer, ZkClient, install_zookeeper
from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry
from repro.sim import LatencyModel, Network, Process, Simulator, make_simulator, run_scope
from repro.sim.network import Message


class Producer(Process):
    def __init__(self, name, stream="c"):
        super().__init__(name)
        self.out = SealedStreamProducer(self, stream)

    def recv(self, msg):
        pass


class Consumer(Process):
    """Releases complete partitions into ``self.completed``."""

    def __init__(self, name, producers_for=None, use_zk=False, stream="c"):
        super().__init__(name)
        self.completed: list[tuple[object, list]] = []
        zk_client = ZkClient(self) if use_zk else None
        self.zk_client = zk_client
        self.seals = SealManager(
            stream,
            lambda partition, records: self.completed.append((partition, records)),
            producers_for=producers_for,
            zk_client=zk_client,
        )

    def recv(self, msg):
        if self.zk_client is not None and self.zk_client.handle(msg):
            return
        self.seals.handle(msg)


def build(seed=0, **net_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(0.001, 0.002), **net_kwargs)
    return sim, network


def test_single_producer_partition_releases_on_seal():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "k1", "r1")
        producer.out.send_record("cons", "k1", "r2")
        producer.out.seal("cons", "k1")

    sim.schedule(0.0, drive)
    sim.run()
    assert len(consumer.completed) == 1
    partition, records = consumer.completed[0]
    assert partition == "k1"
    assert sorted(records) == ["r1", "r2"]


def test_multi_producer_partition_waits_for_unanimous_vote():
    sim, network = build()
    producers = [Producer(f"p{i}") for i in range(3)]
    names = frozenset(p.name for p in producers)
    consumer = Consumer("cons", producers_for=lambda partition: names)
    for producer in producers:
        network.register(producer)
    network.register(consumer)

    def drive():
        for producer in producers:
            producer.out.send_record("cons", "k", f"r-{producer.name}")
        producers[0].out.seal("cons", "k")
        producers[1].out.seal("cons", "k")

    sim.schedule(0.0, drive)
    sim.run()
    assert consumer.completed == []  # one vote missing
    sim.schedule(0.0, lambda: producers[2].out.seal("cons", "k"))
    sim.run()
    assert len(consumer.completed) == 1
    assert len(consumer.completed[0][1]) == 3


def test_partitions_release_independently():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "a", 1)
        producer.out.send_record("cons", "b", 2)
        producer.out.seal("cons", "b")

    sim.schedule(0.0, drive)
    sim.run()
    assert [p for p, _ in consumer.completed] == ["b"]
    assert consumer.seals.pending_partitions == frozenset({"a"})
    assert consumer.seals.buffered_count("a") == 1


def test_producer_cannot_send_after_sealing():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.seal("cons", "k")
        with pytest.raises(SimulationError):
            producer.out.send_record("cons", "k", "late")

    sim.schedule(0.0, drive)
    sim.run()


def test_seal_all_punctuates_every_open_partition():
    sim, network = build()
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        producer.out.send_record("cons", "a", 1)
        producer.out.send_record("cons", "b", 2)
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    assert sorted(p for p, _ in consumer.completed) == ["a", "b"]
    assert producer.out.sealed_partitions == frozenset({"a", "b"})


def test_duplicated_network_releases_each_partition_once():
    sim, network = build(seed=3, dup_prob=0.4)
    producer = Producer("p0")
    consumer = Consumer("cons", producers_for=lambda partition: frozenset({"p0"}))
    network.register(producer)
    network.register(consumer)

    def drive():
        for i in range(20):
            producer.out.send_record("cons", i % 4, i)
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    released = [p for p, _ in consumer.completed]
    assert sorted(released) == [0, 1, 2, 3]
    assert len(released) == len(set(released))


def test_zk_registry_lookup_once_per_partition():
    with run_scope(Telemetry()):
        sim = make_simulator()
    network = Network(sim, latency=LatencyModel(0.001, 0.002))
    zk = install_zookeeper(network)
    zk.preload_znode("producers/'k1'", ["p0"])
    zk.preload_znode("producers/'k2'", ["p0"])
    producer = Producer("p0")
    consumer = Consumer("cons", use_zk=True)
    network.register(producer)
    network.register(consumer)

    def drive():
        for i in range(10):
            producer.out.send_record("cons", "k1", i)
        producer.out.send_record("cons", "k2", "x")
        producer.out.seal_all("cons")

    sim.schedule(0.0, drive)
    sim.run()
    assert sorted(p for p, _ in consumer.completed) == ["k1", "k2"]
    # one registry read per partition, regardless of record count
    assert consumer.seals.registry_lookups == 2
    assert sim.telemetry.tallies()["decisions"]["zk_read"] == 2


def test_missing_registry_entry_raises():
    sim, network = build()
    install_zookeeper(network)
    producer = Producer("p0")
    consumer = Consumer("cons", use_zk=True)
    network.register(producer)
    network.register(consumer)
    sim.schedule(0.0, lambda: producer.out.seal("cons", "ghost"))
    with pytest.raises(SimulationError):
        sim.run()


def test_manager_requires_exactly_one_registry_mode():
    with pytest.raises(SimulationError):
        SealManager("s", lambda p, r: None)


def test_a_message_of_another_stream_is_not_the_managers():
    manager = SealManager("c", lambda *_: None, producers_for=lambda _: frozenset({"p"}))
    foreign = Message("p", "cons", DATA, ("other", 0, "k", "r", "p"), 0.0, 0)
    assert not manager.handle(foreign)
    with pytest.raises(SimulationError, match="stream 'other'"):
        manager.record(foreign)  # routed here by a node, it is a wiring error
