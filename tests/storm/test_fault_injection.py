"""Fault-injection tests: replay heals crashes and loss in the engine."""

from __future__ import annotations

from repro.apps.wordcount import build_wordcount_topology
from repro.chaos.schedule import Crash, Loss
from repro.storm import ClusterConfig, StormCluster
from tests.sim.test_failure import arm
from tests.storm.test_executor import reference_counts


def run_with_crash(crash_task: str, *, at: float, duration: float):
    topology = build_wordcount_topology(
        workers=2, total_batches=5, batch_size=10, seed=2
    )
    config = ClusterConfig(seed=2, replay_timeout=1.0)
    cluster = StormCluster(topology, config)
    arm(cluster.network, Crash(crash_task, 0, at=at, duration=duration))
    cluster.run(max_events=2_000_000)
    return cluster


def test_crashed_count_task_recovers_via_replay():
    cluster = run_with_crash("Count#0", at=0.01, duration=0.5)
    assert len(cluster.batches_acked) == 5
    assert cluster.committed_store() == reference_counts(5, 10, seed=2)
    assert cluster.total_replays > 0


def test_crashed_splitter_recovers_via_replay():
    cluster = run_with_crash("Splitter#1", at=0.005, duration=0.8)
    assert len(cluster.batches_acked) == 5
    assert cluster.committed_store() == reference_counts(5, 10, seed=2)


def test_crashed_committer_recovers_via_replay():
    cluster = run_with_crash("Commit#0", at=0.01, duration=0.6)
    assert len(cluster.batches_acked) == 5
    assert cluster.committed_store() == reference_counts(5, 10, seed=2)


def test_loss_window_recovers():
    topology = build_wordcount_topology(
        workers=2, total_batches=4, batch_size=10, seed=4
    )
    config = ClusterConfig(seed=4, replay_timeout=0.8)
    cluster = StormCluster(topology, config)
    arm(cluster.network, Loss(at=0.005, duration=0.05, drop_prob=0.8))
    cluster.run(max_events=2_000_000)
    assert len(cluster.batches_acked) == 4
    assert cluster.committed_store() == reference_counts(4, 10, seed=4)
