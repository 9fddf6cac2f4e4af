"""Integration tests for the Storm-like executor on the word count app."""

from __future__ import annotations

import pytest

from repro.apps.wordcount import (
    TweetSpout,
    build_wordcount_topology,
    reference_counts,
    run_wordcount,
)
from repro.errors import StormError
from repro.storm import ClusterConfig, StormCluster, stable_hash
from repro.storm.executor import MAX_REPLAYS


def test_spout_batches_are_replay_deterministic():
    spout = TweetSpout(total_batches=3, batch_size=10, seed=1)
    assert spout.next_batch(1) == spout.next_batch(1)
    assert spout.next_batch(0) != spout.next_batch(1)
    assert spout.next_batch(3) is None


def test_stable_hash_is_deterministic():
    assert stable_hash(("w1",)) == stable_hash(("w1",))
    assert stable_hash(("w1",)) != stable_hash(("w2",))


class TestUncoordinatedRun:
    def test_all_batches_commit_with_exact_counts(self):
        metrics, cluster = run_wordcount(
            workers=3, total_batches=6, batch_size=20, transactional=False
        )
        assert metrics.batches_acked == 6
        assert cluster.committed_store() == reference_counts(6, 20)

    def test_results_identical_across_seeds(self):
        """Different delivery interleavings, same committed store —
        the determinism Blazes certifies for the sealed topology."""
        stores = []
        for seed in range(3):
            _, cluster = run_wordcount(
                workers=3, total_batches=4, batch_size=15, transactional=False,
                seed=seed,
            )
            # workload depends on seed; compare to per-seed ground truth
            assert cluster.committed_store() == reference_counts(4, 15, seed=seed)
            stores.append(cluster.committed_store())

    def test_same_seed_is_fully_deterministic(self):
        runs = [
            run_wordcount(workers=2, total_batches=3, batch_size=10, seed=7)
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].committed_store() == runs[1][1].committed_store()


class TestTransactionalRun:
    def test_all_batches_commit_with_exact_counts(self):
        metrics, cluster = run_wordcount(
            workers=3, total_batches=6, batch_size=20, transactional=True
        )
        assert metrics.batches_acked == 6
        assert cluster.committed_store() == reference_counts(6, 20)

    def test_commits_occur_in_serial_batch_order(self):
        _, cluster = run_wordcount(
            workers=3, total_batches=8, batch_size=10, transactional=True
        )
        commits = [
            record.data
            for record in cluster.trace.select(event="batch_committed")
        ]
        assert len(commits) == 8
        # the coordinator grants one batch at a time; each grant is the
        # minimum ready batch, so the order is monotone per run
        assert commits == sorted(commits)

    def test_transactional_is_slower_than_sealed(self):
        sealed, _ = run_wordcount(
            workers=4, total_batches=10, batch_size=20, transactional=False
        )
        txn, _ = run_wordcount(
            workers=4, total_batches=10, batch_size=20, transactional=True
        )
        assert txn.duration > sealed.duration
        assert sealed.throughput > txn.throughput


class TestReplay:
    def test_lossy_network_still_commits_every_batch_exactly(self):
        metrics, cluster = run_wordcount(
            workers=2,
            total_batches=4,
            batch_size=10,
            transactional=False,
            drop_prob=0.02,
            replay_timeout=1.0,
            seed=3,
        )
        assert metrics.batches_acked == 4
        assert cluster.committed_store() == reference_counts(4, 10, seed=3)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_replayed_batches_do_not_double_count(self, seed):
        metrics, cluster = run_wordcount(
            workers=2,
            total_batches=5,
            batch_size=12,
            transactional=False,
            drop_prob=0.05,
            replay_timeout=0.5,
            seed=seed,
        )
        assert metrics.batches_acked == 5
        assert cluster.committed_store() == reference_counts(5, 12, seed=seed)

    def test_transactional_replay_is_at_most_once(self):
        metrics, cluster = run_wordcount(
            workers=2,
            total_batches=4,
            batch_size=10,
            transactional=True,
            drop_prob=0.03,
            replay_timeout=1.5,
            seed=11,
        )
        assert metrics.batches_acked == 4
        assert cluster.committed_store() == reference_counts(4, 10, seed=11)
        # each batch committed exactly once despite replays
        commits = [
            r.data for r in cluster.trace.select(event="batch_committed")
        ]
        assert sorted(commits) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_replay_racing_an_in_flight_commit_commits_once_and_loses_nothing(
        self, seed
    ):
        """A replay timeout shorter than the commit cycle: replays reach
        committers between the grant and the commit, and finish while the
        commit is in flight."""
        metrics, cluster = run_wordcount(
            workers=2,
            total_batches=6,
            batch_size=10,
            transactional=True,
            replay_timeout=0.02,
            seed=seed,
        )
        assert cluster.total_replays > 0
        assert metrics.batches_acked == 6
        assert len(cluster.coordinator.committed) == 6
        commits = [r.data for r in cluster.trace.select(event="batch_committed")]
        assert sorted(commits) == list(range(6))
        assert cluster.committed_store() == reference_counts(6, 10, seed=seed)


def test_a_key_committed_on_two_tasks_is_an_executor_error():
    _metrics, cluster = run_wordcount(
        workers=2, total_batches=2, batch_size=10, parallelism={"Commit": 2}
    )
    first, second = (cluster.bolt_task(name).bolt.store for name in cluster.acker_tasks)
    key = next(iter(first))
    second[key] = first[key]
    with pytest.raises(StormError, match="same key committed on two tasks"):
        cluster.committed_store()


def test_topology_scaling_increases_throughput():
    small, _ = run_wordcount(workers=2, total_batches=8, batch_size=20)
    large, _ = run_wordcount(workers=6, total_batches=8, batch_size=20)
    assert large.throughput > small.throughput


def test_metrics_fields_are_consistent():
    metrics, cluster = run_wordcount(workers=2, total_batches=3, batch_size=10)
    assert metrics.batches_acked == 3
    assert metrics.tuples_emitted == 30
    assert metrics.duration == pytest.approx(cluster.sim.now)
    assert metrics.throughput > 0
    assert metrics.mean_batch_latency > 0
    assert metrics.replays == 0


class TestConfigChecks:
    """Settings that would hang or fail inside the event loop fail here."""

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_a_replay_timeout_must_be_positive(self, timeout):
        with pytest.raises(StormError, match="replay_timeout"):
            ClusterConfig(replay_timeout=timeout)

    def test_a_service_time_must_not_be_negative(self):
        with pytest.raises(StormError, match="Count"):
            ClusterConfig(exec_times={"Count": -1.0})

    def test_a_service_time_for_an_unknown_component_is_rejected(self):
        topology = build_wordcount_topology(workers=2, total_batches=1)
        config = ClusterConfig(exec_times={"Conut": 0.001})  # typo'd "Count"
        with pytest.raises(StormError, match="Conut"):
            StormCluster(topology, config)

    def test_a_batch_replayed_max_replays_times_is_given_up(self):
        """A timeout shorter than any round trip: every batch is re-emitted
        MAX_REPLAYS times, then left unacked, and the run ends."""
        metrics, cluster = run_wordcount(
            workers=2, total_batches=3, batch_size=10, replay_timeout=0.0001
        )
        assert metrics.batches_acked == 0
        assert metrics.replays == 3 * MAX_REPLAYS
        abandoned = [r.data for r in cluster.trace.select(event="batch_abandoned")]
        assert sorted(abandoned) == [0, 1, 2]
