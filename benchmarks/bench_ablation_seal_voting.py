"""Ablation: seal-protocol voting cost vs producers per partition.

The seal protocol's only cross-node synchronization is the unanimous vote:
a consumer releases a partition after seeing a punctuation from every
producer.  This ablation measures partition release latency as the
producer set grows — the quantitative face of the paper's "coordination
locality" discussion (Section X): the more nodes a partition's data is
spread across, the longer the wait for the slowest punctuation.
"""

from __future__ import annotations

import statistics

from repro.coord import SealManager, SealedStreamProducer
from repro.sim import LatencyModel, Network, Process, make_simulator

PRODUCER_COUNTS = (1, 2, 5, 10)
PARTITIONS = 30
RECORDS_PER_PRODUCER = 5


class Producer(Process):
    def __init__(self, name):
        super().__init__(name)
        self.out = SealedStreamProducer(self, "s")

    def recv(self, msg):
        pass


class Consumer(Process):
    def __init__(self, name, producers):
        super().__init__(name)
        self.releases: list[tuple[float, object]] = []
        self.seals = SealManager(
            "s",
            lambda partition, records: self.releases.append((self.now, partition)),
            producers_for=lambda partition: producers,
        )

    def recv(self, msg):
        self.seals.handle(msg)


def run_vote(n_producers: int, seed: int = 0):
    sim = make_simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(base=0.001, jitter=0.005))
    producers = [Producer(f"p{i}") for i in range(n_producers)]
    consumer = Consumer("c", frozenset(p.name for p in producers))
    for producer in producers:
        network.register(producer)
    network.register(consumer)

    def drive():
        for partition in range(PARTITIONS):
            for producer in producers:
                for record in range(RECORDS_PER_PRODUCER):
                    producer.out.send_record("c", partition, (partition, record))
                producer.out.seal("c", partition)

    sim.schedule(0.0, drive)
    sim.run()
    assert len(consumer.releases) == PARTITIONS
    return statistics.mean(t for t, _ in consumer.releases)


def test_ablation_voting_cost():
    rows = [(n, run_vote(n)) for n in PRODUCER_COUNTS]
    print()
    print("Ablation — partition release latency vs producers per partition")
    print(f"{'producers':>10} {'mean release (s)':>18}")
    for n, latency in rows:
        print(f"{n:>10} {latency:>18.4f}")
    latencies = [latency for _, latency in rows]
    # single-producer partitions release fastest; latency grows with the
    # size of the voting quorum
    assert latencies[0] == min(latencies)
    assert latencies[-1] > latencies[0]
