"""Batched channel delivery: frames, FIFO, punctuations, replay, scaling.

These tests pin the executor's batched-delivery semantics at component
parallelism > 1: tuples coalesce into frames of at most ``frame_size``
items, per-channel FIFO holds at frame granularity, a batch punctuation
never overtakes the data it covers, and at-least-once replay still
commits exact counts.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.apps.wordcount import build_wordcount_topology, run_wordcount
from repro.errors import StormError
from repro.storm import ClusterConfig, StormCluster
from repro.storm.executor import CHAN

from tests.storm.test_executor import reference_counts

PARALLELISM = {"Splitter": 4, "Count": 6}


def run_observed(frame_size: int, *, total_batches: int = 4, batch_size: int = 40):
    """Run word count while recording every delivered channel frame."""
    topology = build_wordcount_topology(
        workers=2, total_batches=total_batches, batch_size=batch_size
    )
    config = ClusterConfig(frame_size=frame_size, parallelism=PARALLELISM)
    cluster = StormCluster(topology, config)
    channels: dict[tuple, list[tuple]] = defaultdict(list)

    def observe(msg):
        if msg.kind == CHAN:
            src, batch, attempt, seq, frame = msg.payload
            channels[(src, msg.dst, batch, attempt)].append((seq, frame))

    cluster.network.observe(observe)
    cluster.run()
    return cluster, channels


class TestFrameDelivery:
    def test_parallelism_override_takes_effect(self):
        cluster, _ = run_observed(frame_size=8)
        assert len(cluster.task_names("Splitter")) == 4
        assert len(cluster.task_names("Count")) == 6
        assert len(cluster.assignment.tasks_of("Count")) == 6

    def test_frames_respect_frame_size_and_actually_batch(self):
        _, channels = run_observed(frame_size=8)
        lengths = [
            len(frame)
            for deliveries in channels.values()
            for _seq, frame in deliveries
        ]
        assert max(lengths) <= 8
        assert max(lengths) > 1, "no frame ever carried more than one item"

    def test_per_channel_fifo_sequences_are_contiguous(self):
        _, channels = run_observed(frame_size=8)
        for key, deliveries in channels.items():
            seqs = {seq for seq, _frame in deliveries}
            assert seqs == set(range(len(seqs))), f"gap in channel {key}"

    def test_punctuation_closes_every_channel(self):
        """Reassembled in seq order, each channel ends with its punct."""
        _, channels = run_observed(frame_size=8)
        assert channels
        for key, deliveries in channels.items():
            items = [
                item
                for _seq, frame in sorted(deliveries)
                for item in frame
            ]
            puncts = [i for i, item in enumerate(items) if item[0] == "punct"]
            assert puncts, f"channel {key} never punctuated"
            assert puncts[-1] == len(items) - 1, (
                f"channel {key}: data after the punctuation"
            )

    def test_exact_counts_at_parallelism_above_one(self):
        for frame_size in (1, 8, 64):
            metrics, cluster = run_wordcount(
                workers=2,
                total_batches=5,
                batch_size=30,
                frame_size=frame_size,
                parallelism=PARALLELISM,
            )
            assert metrics.batches_acked == 5
            assert cluster.committed_store() == reference_counts(5, 30)

    def test_same_seed_same_frame_size_is_deterministic(self):
        runs = [
            run_wordcount(
                workers=2, total_batches=3, batch_size=20, frame_size=16,
                parallelism=PARALLELISM, seed=9,
            )[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_frame_size_must_be_positive(self):
        with pytest.raises(StormError):
            ClusterConfig(frame_size=0)

    def test_unknown_parallelism_component_is_rejected(self):
        topology = build_wordcount_topology(workers=2, total_batches=1)
        config = ClusterConfig(parallelism={"Conut": 4})  # typo'd "Count"
        with pytest.raises(StormError, match="Conut"):
            StormCluster(topology, config)


class TestMessageReduction:
    def test_frame_16_cuts_message_events_five_fold(self):
        """The acceptance bar: >= 5x fewer messages at equal output."""
        base, base_cluster = run_wordcount(
            workers=4, total_batches=6, batch_size=120, frame_size=1,
        )
        batched, batched_cluster = run_wordcount(
            workers=4, total_batches=6, batch_size=120, frame_size=16,
        )
        assert batched_cluster.committed_store() == base_cluster.committed_store()
        assert batched.batches_acked == base.batches_acked
        assert batched.items_sent == base.items_sent
        assert base.messages_sent / batched.messages_sent >= 5.0

    def test_batching_factor_metric(self):
        metrics, _ = run_wordcount(
            workers=4, total_batches=6, batch_size=120, frame_size=16,
        )
        assert metrics.frames_sent < metrics.items_sent
        assert metrics.items_sent / metrics.frames_sent > 3.0

    def test_frame_size_one_matches_item_count(self):
        metrics, _ = run_wordcount(workers=3, total_batches=4, batch_size=20)
        assert metrics.frames_sent == metrics.items_sent


class TestBatchedReplay:
    @pytest.mark.parametrize("seed", [2, 6])
    def test_lossy_network_commits_exact_counts(self, seed):
        metrics, cluster = run_wordcount(
            workers=2,
            total_batches=4,
            batch_size=24,
            frame_size=8,
            parallelism=PARALLELISM,
            drop_prob=0.05,
            replay_timeout=0.8,
            seed=seed,
        )
        assert metrics.batches_acked == 4
        assert cluster.committed_store() == reference_counts(4, 24, seed=seed)

    def test_replays_do_occur_under_loss(self):
        """A dropped frame stalls its whole attempt, so replay must fire."""
        replay_seen = 0
        for seed in range(6):
            metrics, _ = run_wordcount(
                workers=2,
                total_batches=4,
                batch_size=24,
                frame_size=8,
                drop_prob=0.08,
                replay_timeout=0.8,
                seed=seed,
            )
            assert metrics.batches_acked == 4
            replay_seen += metrics.replays
        assert replay_seen > 0

    def test_transactional_with_frames_commits_exactly_once(self):
        """Commits stay serialized one-at-a-time and exactly-once.

        Frame batching changes readiness arrival order, so the grant
        sequence need not be monotone in batch id (the coordinator grants
        the minimum *ready* batch) — but every batch commits exactly once
        and the store is exact.
        """
        metrics, cluster = run_wordcount(
            workers=3,
            total_batches=6,
            batch_size=20,
            frame_size=16,
            transactional=True,
        )
        assert metrics.batches_acked == 6
        commits = [
            record.data
            for record in cluster.trace.select(event="batch_committed")
        ]
        assert sorted(commits) == list(range(6))
        assert cluster.committed_store() == reference_counts(6, 20)


class TestSupersededAttempts:
    def test_a_stale_item_is_never_executed_by_an_idle_or_a_busy_bolt(self):
        """An item of a superseded attempt reaches ``_service`` and is
        discarded there, whether it found the bolt idle (straight into
        service) or busy (queued behind a current item); later attempts
        still flow."""
        topology = build_wordcount_topology(
            workers=2, total_batches=2, batch_size=10
        )
        cluster = StormCluster(topology, ClusterConfig())
        task = cluster.bolt_task(cluster.task_names("Count")[0])
        word = ("tuple", ("w",))
        task._ensure_attempt(5, 2)  # the bolt has seen attempt 2 of batch 5
        # idle: the stale item goes into service, which drops it
        task.on_item("splitter-0", 5, 1, word)
        assert task._busy
        cluster.sim.run()
        assert task.processed_tuples == 0 and not task._busy
        # busy: a current item is in service, the stale one waits behind it
        task.on_item("splitter-0", 5, 2, word)
        task.on_item("splitter-0", 5, 1, word)
        task.on_item("splitter-0", 5, 3, word)
        assert len(task._queue) == 2
        cluster.sim.run()
        assert task.processed_tuples == 2  # attempts 2 and 3, never 1
        assert task._batch_attempt[5] == 3 and not task._busy

    def test_replay_storms_still_commit_exact_counts(self):
        """Aggressive replay timeouts (attempts racing each other) must
        not change committed results."""
        for seed in range(4):
            metrics, cluster = run_wordcount(
                workers=2,
                total_batches=3,
                batch_size=24,
                frame_size=4,
                replay_timeout=0.02,  # shorter than batch completion
                seed=seed,
            )
            assert metrics.batches_acked == 3
            assert cluster.committed_store() == reference_counts(3, 24, seed=seed)
