"""Property-based tests for the coordination substrates."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coord.ordering import OrderedInbox
from repro.coord.sealing import DATA, PUNCT, SealManager
from repro.sim.network import Message


class TestOrderedInboxProperties:
    @given(st.permutations(list(range(30))))
    def test_any_permutation_releases_in_order(self, seqs):
        out = []
        inbox = OrderedInbox(out.append)
        for seq in seqs:
            inbox.offer(seq, seq)
        assert out == sorted(seqs)
        assert inbox.buffered == 0
        assert inbox.applied == len(seqs)

    @given(
        st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=60)
    )
    def test_duplicates_never_double_apply(self, seqs):
        out = []
        inbox = OrderedInbox(out.append)
        for seq in seqs:
            inbox.offer(seq, seq)
        assert len(out) == len(set(out))
        assert out == sorted(set(out))
        # everything below the first gap is applied
        distinct = set(seqs)
        expected = 0
        while expected in distinct:
            expected += 1
        assert inbox.applied == expected

    @given(st.permutations(list(range(20))), st.integers(0, 2**16))
    def test_release_count_sums_to_total(self, seqs, _salt):
        inbox = OrderedInbox(lambda v: None)
        released = sum(inbox.offer(seq, seq) for seq in seqs)
        assert released == len(seqs)


class TestSealManagerProperties:
    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=4),   # producers
        st.integers(min_value=1, max_value=5),   # partitions
        st.integers(min_value=0, max_value=6),   # records per (prod, part)
        st.randoms(use_true_random=False),
    )
    def test_each_partition_releases_exactly_once_with_all_records(
        self, n_producers, n_partitions, per_pair, rng
    ):
        producers = [f"p{i}" for i in range(n_producers)]
        released: dict = {}
        manager = SealManager(
            "s",
            lambda partition, records: released.__setitem__(partition, records),
            producers_for=lambda partition: frozenset(producers),
        )
        # build the event schedule: per-producer records then a seal, then
        # interleave across producers in a random but per-producer-ordered way
        events = []
        for producer in producers:
            per_producer = []
            for partition in range(n_partitions):
                for record in range(per_pair):
                    per_producer.append(("data", partition, (producer, record), producer))
                per_producer.append(("seal", partition, None, producer))
            events.append(per_producer)
        merged = []
        cursors = [0] * n_producers
        while any(c < len(e) for c, e in zip(cursors, events)):
            choices = [i for i, c in enumerate(cursors) if c < len(events[i])]
            pick = rng.choice(choices)
            merged.append(events[pick][cursors[pick]])
            cursors[pick] += 1
        for kind, partition, payload, producer in merged:
            if kind == "data":
                manager.on_data(partition, payload, producer)
            else:
                manager.on_seal(partition, producer)
        assert set(released) == set(range(n_partitions))
        for partition, records in released.items():
            assert len(records) == n_producers * per_pair
        assert manager._buffers == {}

    @given(st.integers(min_value=2, max_value=5))
    def test_no_release_before_unanimity(self, n_producers):
        producers = [f"p{i}" for i in range(n_producers)]
        released = []
        manager = SealManager(
            "s",
            lambda partition, records: released.append(partition),
            producers_for=lambda partition: frozenset(producers),
        )
        manager.on_data("k", "r", producers[0])
        for producer in producers[:-1]:
            manager.on_seal("k", producer)
            assert released == []
        manager.on_seal("k", producers[-1])
        assert released == ["k"]

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=3),   # producers
        st.integers(min_value=1, max_value=3),   # partitions
        st.integers(min_value=0, max_value=3),   # records per (prod, part)
        st.randoms(use_true_random=False),
    )
    def test_channel_messages_apply_in_sequence_despite_reorder_and_replay(
        self, n_producers, n_partitions, per_pair, rng
    ):
        """Each producer's messages arrive shuffled among everyone's, some
        twice; every partition still releases once, holding each record
        once and each producer's records in the order it sent them."""
        producers = [f"p{i}" for i in range(n_producers)]
        released: dict = {}
        manager = SealManager(
            "s",
            lambda partition, records: released.__setitem__(partition, records),
            producers_for=lambda partition: frozenset(producers),
        )
        messages = []
        for producer in producers:
            seq = 0
            for partition in range(n_partitions):
                for record in range(per_pair):
                    payload = ("s", seq, partition, (producer, record), producer)
                    messages.append(Message(producer, "c", DATA, payload, 0.0, 0))
                    seq += 1
                payload = ("s", seq, partition, producer)
                messages.append(Message(producer, "c", PUNCT, payload, 0.0, 0))
                seq += 1
        deliveries = messages + rng.sample(messages, len(messages) // 2)
        rng.shuffle(deliveries)
        for msg in deliveries:
            assert manager.handle(msg)
        assert set(released) == set(range(n_partitions))
        for records in released.values():
            for producer in producers:
                mine = [record for who, record in records if who == producer]
                assert mine == list(range(per_pair))
