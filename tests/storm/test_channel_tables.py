"""The executor's integer channel tables: same rule, counted work.

The receive side of a channel is two dicts — next expected sequence
number per ``(src, batch, attempt)``, and held-back frames only while a
gap is open — instead of an inbox object per channel, and both sides
retire a channel when its batch attempt closes.  The reassembly rule must
still be :class:`repro.coord.ordering.OrderedInbox`'s, and the work saved
is pinned as counts (which repeat exactly), not timings.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import (
    build_wordcount_topology,
    reference_counts,
    run_wordcount,
)
from repro.chaos.schedule import Duplicate
from repro.coord.ordering import OrderedInbox
from repro.sim import LatencyModel, Message, faultpolicy
from repro.storm import ClusterConfig, StormCluster
from repro.storm.executor import CHAN, _BoltTask, _TaskBase
from tests.sim.test_failure import arm


class RecordingTask(_TaskBase):
    def __init__(self) -> None:
        super().__init__("t", types.SimpleNamespace(config=ClusterConfig()))
        self.log: list[tuple] = []

    def on_item(self, src, batch, attempt, item) -> None:
        self.log.append((src, batch, attempt, item))


def _deliver(task: _TaskBase, key: tuple, seq: int, frame: tuple) -> None:
    src, batch, attempt = key
    task.handle_chan(Message(src, "t", CHAN, (src, batch, attempt, seq, frame), 0.0, 0))


@st.composite
def deliveries(draw):
    """Several channels' frames: permuted, with gaps and duplicates."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(("s0", "s1")), st.integers(0, 2), st.integers(0, 1)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    frames = [
        (key, seq, tuple((key, seq, n) for n in range(draw(st.integers(1, 3)))))
        for key in keys
        for seq in range(draw(st.integers(1, 6)))
    ]
    # sampling with replacement drops some frames (gaps) and repeats others
    picked = draw(st.lists(st.sampled_from(frames), max_size=3 * len(frames)))
    return keys, picked


@settings(max_examples=300, deadline=None)
@given(deliveries())
def test_reassembly_is_the_ordered_inbox_rule(case):
    keys, picked = case
    task = RecordingTask()
    reference: list[tuple] = []
    inboxes = {
        key: OrderedInbox(
            lambda frame, key=key: reference.extend((*key, item) for item in frame)
        )
        for key in keys
    }
    for key, seq, frame in picked:
        _deliver(task, key, seq, frame)
        inboxes[key].offer(seq, frame)
        # append-only logs: equal lengths now and equal contents at the
        # end mean every delivery released exactly the same items
        assert len(task.log) == len(reference)
    assert task.log == reference
    for key, inbox in inboxes.items():
        assert task._recv_seq.get(key, 0) == inbox.applied
        assert len(task._held.get(key, ())) == len(inbox._pending)
    # a channel is in the held table only while it has a gap open
    assert all(task._held.values())


def test_drop_stale_channels_covers_both_receive_tables():
    task = RecordingTask()
    for attempt in (0, 1):
        _deliver(task, ("s0", 7, attempt), 0, ("in order",))
        _deliver(task, ("s0", 7, attempt), 2, ("held",))
    task.drop_stale_channels(7, 1)
    assert set(task._recv_seq) == set(task._held) == {("s0", 7, 1)}


def _tasks(cluster: StormCluster) -> list[_TaskBase]:
    return [p for p in cluster.network.processes if isinstance(p, _TaskBase)]


def _counting(monkeypatch, name: str) -> list:
    calls: list = []
    policy = getattr(faultpolicy, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return policy(*args, **kwargs)

    monkeypatch.setattr(faultpolicy, name, counted)
    return calls


def test_policy_is_consulted_only_while_a_fault_can_apply(monkeypatch):
    copies = _counting(monkeypatch, "send_copies")
    actions = _counting(monkeypatch, "delivery_action")
    # small batches: at 5 % loss an attempt must get every message through
    shape = dict(workers=4, total_batches=4, batch_size=5, seed=3)

    metrics, cluster = run_wordcount(**shape)
    assert metrics.batches_acked == 4
    assert cluster.network.sent > 200
    assert (len(copies), len(actions)) == (0, 0)
    # jitter reordered frames, and every gap closed again
    assert not any(task._held for task in _tasks(cluster))

    metrics, cluster = run_wordcount(**shape, drop_prob=0.05, replay_timeout=0.6)
    assert metrics.batches_acked == 4
    assert cluster.network.dropped > 0 and cluster.total_replays > 0
    # every send asks about loss; no link is blocked and nobody crashed
    assert (len(copies), len(actions)) == (cluster.network.sent, 0)


@pytest.mark.parametrize(
    "jitter, frame_size", [(0.0, 1), (0.001, 1), (0.001, 8)], ids=["in-order", "jitter", "framed"]
)
def test_channel_tables_are_empty_after_a_run(jitter, frame_size):
    """Every channel retires when its batch attempt closes: the sender
    drops its counter with the punctuation, the receiver its counter when
    the attempt completes, and what is left is one tombstone per batch
    attempt at each bolt task."""
    topology = build_wordcount_topology(workers=4, total_batches=6, batch_size=20)
    cluster = StormCluster(topology, ClusterConfig(seed=3, frame_size=frame_size))
    cluster.network.latency = LatencyModel(base=0.0005, jitter=jitter)
    cluster.run()
    assert len(cluster.batches_acked) == 6
    for task in _tasks(cluster):
        assert task._chan_seq == task._recv_seq == task._held == task._out_frames == {}
    assert cluster.total_frames_sent > 150  # the tables were exercised
    bolts = [task for task in _tasks(cluster) if isinstance(task, _BoltTask)]
    assert all(task._closed == {(batch, 0) for batch in range(6)} for task in bolts)


def _processed(cluster: StormCluster) -> int:
    return sum(
        task.processed_tuples for task in _tasks(cluster) if isinstance(task, _BoltTask)
    )


def test_a_frame_copied_after_its_attempt_closed_is_not_executed_again():
    """Every data message is sent twice, so the late copy of many a
    channel's frames lands after its batch attempt completed and its
    receive counter retired: the tombstone must still discard it."""
    shape = dict(workers=4, total_batches=6, batch_size=20, seed=5)
    _, clean = run_wordcount(**shape)

    def duplicate_everything(cluster: StormCluster) -> None:
        arm(cluster.network, Duplicate(0.0, 1000.0, 1.0))

    metrics, cluster = run_wordcount(**shape, chaos=duplicate_everything)
    assert metrics.batches_acked == 6
    assert cluster.network.duplicated == cluster.network.sent  # no reliable kinds
    assert cluster.committed_store() == reference_counts(6, 20, seed=5)
    assert _processed(cluster) == _processed(clean)
