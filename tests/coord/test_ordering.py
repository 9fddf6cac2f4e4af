"""Unit tests for total-order delivery (the ordering strategy)."""

from __future__ import annotations

import random

from repro.coord import OrderedInbox, ZkClient, install_zookeeper
from repro.sim import LatencyModel, Network, Process, Simulator


class TestOrderedInbox:
    def test_in_order_deliveries_release_immediately(self):
        out = []
        inbox = OrderedInbox(out.append)
        for seq in range(5):
            assert inbox.offer(seq, seq) == 1
        assert out == [0, 1, 2, 3, 4]

    def test_gap_holds_back_later_deliveries(self):
        out = []
        inbox = OrderedInbox(out.append)
        inbox.offer(1, "b")
        inbox.offer(2, "c")
        assert out == []
        assert len(inbox._pending) == 2
        released = inbox.offer(0, "a")
        assert released == 3
        assert out == ["a", "b", "c"]

    def test_duplicates_apply_once(self):
        out = []
        inbox = OrderedInbox(out.append)
        inbox.offer(0, "a")
        inbox.offer(0, "a")
        inbox.offer(1, "b")
        inbox.offer(1, "b")
        assert out == ["a", "b"]
        assert inbox.applied == 2 and not inbox._pending

    def test_random_permutation_always_releases_in_order(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randrange(1, 40)
            seqs = list(range(n))
            rng.shuffle(seqs)
            out = []
            inbox = OrderedInbox(out.append)
            for seq in seqs:
                inbox.offer(seq, seq)
            assert out == list(range(n))
            assert len(inbox._pending) == 0


class Replica(Process):
    """A replica applying ordered deliveries to a simple log."""

    def __init__(self, name):
        super().__init__(name)
        self.log = []
        self.inbox = OrderedInbox(self.log.append)

    def recv(self, msg):
        topic, seq, value = msg.payload
        assert topic == "ops"
        self.inbox.offer(seq, value)


class Producer(Process):
    def __init__(self, name):
        super().__init__(name)
        self.zk = ZkClient(self)

    def recv(self, msg):
        self.zk.handle(msg)


def test_replicas_apply_identical_logs_despite_jitter():
    for seed in range(5):
        sim = Simulator(seed=seed)
        network = Network(sim, latency=LatencyModel(0.001, 0.02))
        zk = install_zookeeper(network)
        replicas = [Replica(f"r{i}") for i in range(3)]
        for replica in replicas:
            network.register(replica)
            zk.subscribe("ops", replica.name)
        producers = [Producer(f"p{i}") for i in range(4)]
        for producer in producers:
            network.register(producer)

        def burst():
            for producer in producers:
                for i in range(10):
                    producer.zk.submit("ops", (producer.name, i))

        sim.schedule(0.0, burst)
        sim.run()
        logs = [replica.log for replica in replicas]
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 40
