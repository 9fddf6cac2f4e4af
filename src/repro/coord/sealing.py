"""The seal protocol: partition-local coordination (paper Section V-B1).

Producers embed *punctuations* into their streams: a punctuation for
partition ``p`` guarantees the producer will send no more records belonging
to ``p``.  A consumer executing an order-sensitive component buffers each
partition until it can prove the partition's contents are complete:

1. it looks up the set of producers responsible for the partition (one
   znode read per partition, exactly the "one call to Zookeeper per
   campaign" of Section VIII-B3); and
2. it waits until *every* producer in that set has sealed the partition —
   the unanimous voting round.  When a partition has a single producer the
   vote degenerates to that producer's own punctuation and no further
   synchronization is needed.

Once complete, the partition is released for processing — asynchronously
with respect to every other partition, which is why sealing scales where
global ordering does not.

Each producer is one process, named in the protocol by its process name,
so a partition's producer set is the set of process names registered for
it (at :func:`registry_path`).  See ``docs/architecture.md`` for the full
paper-section-to-module map.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Any

from repro.coord.zookeeper import ZkClient
from repro.errors import SimulationError
from repro.sim.events import RUN_SCOPE
from repro.wire import SEAL_DATA as DATA, SEAL_PUNCT as PUNCT, part_lineage

__all__ = ["SealedStreamProducer", "SealManager", "DATA", "PUNCT", "registry_path"]

_SEAL_MARK = object()

Partition = Hashable


def registry_path(partition: Partition) -> str:
    """The znode holding the producer set of one sealed partition."""
    return f"producers/{partition!r}"


class SealedStreamProducer:
    """Producer-side helper: tag records with partitions and emit seals.

    A punctuation only means something if the consumer can tell which data
    records preceded it, but the simulated network reorders messages.  The
    producer therefore stamps every message on a ``(stream, destination)``
    channel with a dense sequence number and the consumer reassembles the
    channel in order — the role TCP plays for real punctuated streams.
    The producer is named in the protocol by its process name.
    """

    def __init__(self, process, stream: str) -> None:
        self.process = process
        self.stream = stream
        self._sealed: set[Partition] = set()
        self._chan_seq: dict[str, int] = {}

    def send_record(self, dst: str, partition: Partition, record: Any) -> None:
        """Send one data record within a partition."""
        if partition in self._sealed:
            raise SimulationError(
                f"producer {self.process.name} already sealed partition "
                f"{partition!r} on stream {self.stream}"
            )
        seq = self._chan_seq.get(dst, 0)
        self._chan_seq[dst] = seq + 1
        self.process.send(dst, DATA, (self.stream, seq, partition, record, self.process.name))

    def seal(self, dst: str, partition: Partition) -> None:
        """Punctuate: promise no more records for ``partition``."""
        self._sealed.add(partition)
        seq = self._chan_seq.get(dst, 0)
        self._chan_seq[dst] = seq + 1
        self.process.send(dst, PUNCT, (self.stream, seq, partition, self.process.name))



class SealManager:
    """Consumer-side seal coordination for one input stream.

    Parameters
    ----------
    on_complete:
        Called with ``(partition, records)`` exactly once per partition,
        when its complete contents are known.
    producers_for:
        Synchronous partition-to-producer-set lookup (static topologies).
        Mutually exclusive with ``zk_client``.
    zk_client:
        Asynchronous lookup through the znode store: the producer set of
        partition ``p`` lives at ``registry_path(p)``.  The manager
        issues exactly one read per partition and caches the result.
    """

    def __init__(
        self,
        stream: str,
        on_complete: Callable[[Partition, list[Any]], None],
        *,
        producers_for: Callable[[Partition], frozenset[str]] | None = None,
        zk_client: ZkClient | None = None,
    ) -> None:
        if (producers_for is None) == (zk_client is None):
            raise SimulationError(
                "SealManager requires exactly one of producers_for / zk_client"
            )
        self.stream = stream
        self.on_complete = on_complete
        self._producers_for = producers_for
        self._zk = zk_client
        # channel reassembly: each producer's next sequence number, and, for
        # a producer with a gap, the messages that arrived ahead of it
        self._expected: dict[str, int] = {}
        self._early: dict[str, dict[int, tuple[Partition, Any]]] = {}
        self._buffers: dict[Partition, list[Any]] = {}
        self._seals: dict[Partition, set[str]] = {}
        self._producer_sets: dict[Partition, frozenset[str]] = {}
        self._lookups_inflight: set[Partition] = set()
        self.released: set[Partition] = set()
        self.registry_lookups = 0

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, msg) -> bool:
        """Route a network message; returns True when it belonged here
        (a ``seal.data`` or ``seal.punct`` message of this stream)."""
        kind = msg.kind
        if kind not in (DATA, PUNCT) or msg.payload[0] != self.stream:
            return False
        if kind == DATA:
            self.record(msg)
        else:
            self.punctuate(msg)
        return True

    def record(self, msg) -> None:
        """Take one ``seal.data`` message of this stream.

        Messages from each producer apply in channel-sequence order, so a
        punctuation can never overtake the data records it covers: one
        that arrives ahead of a gap is held until the gap fills, and a
        replayed one is dropped.
        """
        stream, seq, partition, record, producer = msg.payload
        if stream == self.stream and seq == self._expected.get(producer, 0):
            self._expected[producer] = seq + 1
            self.on_data(partition, record, producer)
            if producer in self._early:
                self._catch_up(producer)
        else:
            self._hold(stream, producer, seq, (partition, record))

    def punctuate(self, msg) -> None:
        """Take one ``seal.punct`` message of this stream, in channel order
        like :meth:`record`."""
        stream, seq, partition, producer = msg.payload
        if stream == self.stream and seq == self._expected.get(producer, 0):
            self._expected[producer] = seq + 1
            self.on_seal(partition, producer)
            if producer in self._early:
                self._catch_up(producer)
        else:
            self._hold(stream, producer, seq, (partition, _SEAL_MARK))

    def _hold(self, stream: str, producer: str, seq: int, item: tuple) -> None:
        """Keep a message that arrived ahead of a gap in its channel."""
        if stream != self.stream:
            raise SimulationError(
                f"the seal manager of stream {self.stream!r} got a message "
                f"of stream {stream!r}"
            )
        if seq > self._expected.get(producer, 0):  # below it: a replay
            self._early.setdefault(producer, {}).setdefault(seq, item)

    def _catch_up(self, producer: str) -> None:
        """Apply the held messages the last one made contiguous."""
        held, expected = self._early[producer], self._expected
        while (item := held.pop(expected[producer], None)) is not None:
            expected[producer] += 1
            partition, record = item
            if record is _SEAL_MARK:
                self.on_seal(partition, producer)
            else:
                self.on_data(partition, record, producer)
        if not held:
            del self._early[producer]

    def on_data(self, partition: Partition, record: Any, producer: str) -> None:
        """Buffer one record until its partition is complete."""
        if partition in self.released:
            return  # at-least-once networks can replay records after release
        self._buffers.setdefault(partition, []).append(record)
        self._ensure_producer_set(partition)

    def on_seal(self, partition: Partition, producer: str) -> None:
        """Record one producer's punctuation and release if unanimous."""
        if partition in self.released:
            return
        hub = RUN_SCOPE.get()[0]
        if hub is not None:
            hub.note_decision("seal_vote", topic=f"seal:{self.stream}")
        self._seals.setdefault(partition, set()).add(producer)
        self._ensure_producer_set(partition)
        self._maybe_release(partition)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        """Best-effort simulated time for span events (0.0 without one)."""
        process = None if self._zk is None else self._zk.process
        if process is None or process.sim is None:  # not registered yet
            return 0.0
        return process.now

    def _ensure_producer_set(self, partition: Partition) -> None:
        if partition in self._producer_sets or partition in self._lookups_inflight:
            return
        hub = RUN_SCOPE.get()[0]
        if hub is not None:
            hub.note_decision("registry_lookup", topic=f"seal:{self.stream}")
        if self._producers_for is not None:
            self.registry_lookups += 1
            self._producer_sets[partition] = frozenset(self._producers_for(partition))
            return
        assert self._zk is not None
        self._lookups_inflight.add(partition)
        self.registry_lookups += 1
        self._zk.get_znode(
            registry_path(partition),
            lambda value: self._registry_reply(partition, value),
        )

    def _registry_reply(self, partition: Partition, value: Any) -> None:
        self._lookups_inflight.discard(partition)
        if value is None:
            raise SimulationError(
                f"no producer registry entry for partition {partition!r}"
            )
        self._producer_sets[partition] = frozenset(value)
        self._maybe_release(partition)

    def _maybe_release(self, partition: Partition) -> None:
        producers = self._producer_sets.get(partition)
        if producers is None:
            return
        sealed = self._seals.get(partition, set())
        if not producers <= sealed:
            return
        if partition in self.released:
            return
        self.released.add(partition)
        records = self._buffers.pop(partition, [])
        self._seals.pop(partition, None)
        hub = RUN_SCOPE.get()[0]
        if hub is not None:
            hub.note_decision(
                "seal_release",
                topic=f"seal:{self.stream}",
                lineage=part_lineage(partition),
                node=self.stream,
                time=self._clock(),
                detail=f"unanimous over {len(producers)} producers, "
                f"{len(records)} records",
            )
        self.on_complete(partition, records)
