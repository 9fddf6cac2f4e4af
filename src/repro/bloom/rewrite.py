"""Program rewriting: install a coordination strategy on a Bloom deployment.

The paper's "white box" pipeline ends with an automatic rewrite: programs
whose analysis demands coordination are augmented so their inputs arrive
through the chosen mechanism.  Here the rewrite is one installer with two
halves, both built from the same strategy object — an entry of a
:class:`~repro.core.strategy.CoordinationPlan`, or the entry a deployment
declares (:meth:`repro.api.StrategySpec.installed`):

* the consumer half, :func:`apply_strategy`, attaches an *input delivery
  policy* to a :class:`~repro.bloom.cluster.BloomNode`:
  :class:`OrderedInputAdapter` (inputs flow through the Zookeeper
  sequencer; every replica applies them in the same total order) or
  :class:`SealedInputAdapter` (inputs buffer per partition and apply only
  when the partition's complete contents are known);
* the producer half, :func:`strategy_producer`, is how a source process
  ships rows to those nodes — broadcast, sealed or sequenced, decided
  once when the producer is built.

The registered Bloom apps wire themselves through these two calls; no
app switches on a strategy name to pick a delivery mechanism.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Callable, Mapping, Sequence

from repro.bloom.cluster import INSERT_MSG, TICK_DELAY, BloomNode
from repro.coord.ordering import OrderedConsumer
from repro.coord.sealing import SealedStreamProducer, SealManager
from repro.coord.zookeeper import ZkClient, ZookeeperService
from repro.core.strategy import NoCoordination, OrderStrategy, SealStrategy
from repro.errors import BloomError
from repro.sim.network import Message, Process

__all__ = [
    "OrderedInputAdapter",
    "SealedInputAdapter",
    "apply_strategy",
    "strategy_producer",
]


class OrderedInputAdapter:
    """Consumer-side ordering: apply sequencer deliveries in order.

    Installed as a node plugin; every ``(collection, row)`` the sequencer
    delivers is inserted into the runtime in sequence order, so all
    replicas process identical input sequences — state-machine
    replication.

    Sequence order alone is not enough for replica agreement: Bloom nodes
    batch whatever input is pending into one timestep, so a replica whose
    deliveries bunched up (a reorder burst filling an inbox gap) would
    evaluate at *different points* of the sequence than one that received
    them spread out, and a standing query can emit from a transient state
    only one of them ever observes.  The adapter therefore paces releases:
    each sequenced value is applied in its own timestep, making the whole
    evaluation trajectory — not just the input order — a deterministic
    function of the sequencer's decision log.
    """

    def __init__(self, node: BloomNode, topic: str) -> None:
        self.node = node
        # only the node's plugin holds the consumer (and the inbox that
        # calls back into this adapter): with no way back to them, the
        # adapter leaves no cycle once a closed node drops its plugins
        consumer = OrderedConsumer()
        consumer.on_topic(topic, self._enqueue)
        node.add_plugin(consumer.handle)
        self.applied = 0
        self._queue: deque[tuple[str, tuple]] = deque()
        self._draining = False  # a released value's step is still ahead

    def _enqueue(self, item: tuple[str, tuple]) -> None:
        if self._draining:
            self._queue.append(item)
        else:
            self._apply(item)

    def _apply(self, item: tuple[str, tuple]) -> None:
        self._draining = True
        collection, row = item
        node = self.node
        node.runtime.insert(collection, (row,))
        node.schedule_tick()
        self.applied += 1
        # the tick for this value fires at TICK_DELAY; release the next
        # one strictly after it so no two sequenced values share a step
        node.sim.post(TICK_DELAY * 1.5, self._release_next)

    def _release_next(self) -> None:
        if self._queue:
            self._apply(self._queue.popleft())
        else:
            self._draining = False


class SealedInputAdapter:
    """Consumer-side sealing: buffer partitions until punctuated.

    ``stream`` names the sealed stream (producers must use a
    :class:`~repro.coord.sealing.SealedStreamProducer` with the same
    name); complete partitions are inserted into ``collection`` in one
    timestep, which is what makes the nonmonotonic component deterministic
    without global coordination.  A partition's producer set comes from
    ``producers_for`` or, without it, from one znode read per partition.
    """

    def __init__(
        self,
        node: BloomNode,
        stream: str,
        collection: str,
        *,
        producers_for: Callable[[object], frozenset[str]] | None = None,
    ) -> None:
        # the manager and the adapter call each other back, a cycle that
        # outlives the node's plugins: the way from it to the node is weak,
        # so a closed run's node is in no cycle and is freed at once
        self.node = weakref.proxy(node)
        self.collection = collection
        self._zk_client = ZkClient(self.node) if producers_for is None else None
        self.manager = SealManager(
            stream,
            self._release,
            producers_for=producers_for,
            zk_client=self._zk_client,
        )
        node.add_plugin(self._handle)

    def _handle(self, msg) -> bool:
        if self._zk_client is not None and self._zk_client.handle(msg):
            return True
        return self.manager.handle(msg)

    def _release(self, partition, records: list) -> None:
        self.node.insert(self.collection, [tuple(r) for r in records])


def _order_topic(strategy: OrderStrategy) -> str:
    return strategy.topic or f"{strategy.component}.inputs"


def apply_strategy(
    node: BloomNode,
    strategy,
    *,
    zk: ZookeeperService | None = None,
    stream_collections: Mapping[str, str] | None = None,
    producers_for: Callable[[object], frozenset[str]] | None = None,
    sealed_adapter: type[SealedInputAdapter] = SealedInputAdapter,
):
    """The consumer half: install a strategy's delivery policy on one node.

    Returns the adapter (or ``None`` for :class:`NoCoordination`).  An
    :class:`OrderStrategy` subscribes the node to its sequencer topic on
    ``zk``, the deployment's coordination service.  For a
    :class:`SealStrategy`, ``stream_collections`` maps sealed stream names
    to the runtime collections their records target; ``producers_for``
    is the adapters' static producer-set lookup.
    """
    if isinstance(strategy, NoCoordination):
        return None
    if isinstance(strategy, OrderStrategy):
        topic = _order_topic(strategy)
        if zk is not None:
            zk.subscribe(topic, node.name)
        return OrderedInputAdapter(node, topic)
    if isinstance(strategy, SealStrategy):
        stream_collections = stream_collections or {}
        adapters = []
        for stream, _key in strategy.partitions:
            collection = stream_collections.get(stream)
            if collection is None:
                raise BloomError(
                    f"no collection mapping for sealed stream {stream!r}"
                )
            adapters.append(
                sealed_adapter(node, stream, collection, producers_for=producers_for)
            )
        return adapters if len(adapters) != 1 else adapters[0]
    raise BloomError(f"unknown strategy {strategy!r}")


class _BroadcastProducer:
    """No coordination: every row goes straight to every destination."""

    def __init__(self, process: Process, destinations: Sequence[str]) -> None:
        self.process = process
        self.destinations = tuple(destinations)

    def emit(self, collection: str, row: tuple, partition=None) -> None:
        """Ship one row of ``collection`` (in seal partition ``partition``)."""
        for dst in self.destinations:
            self.process.send(dst, INSERT_MSG, (collection, [row]))

    def seal(self, partition) -> None:
        """Promise no more rows for ``partition`` (sealed delivery only)."""

    def handle(self, msg: Message) -> bool:
        """Route a coordination-service reply; True when it was one."""
        return False


class _SequencedProducer(_BroadcastProducer):
    """Every row is submitted to the sequencer topic the consumers ride."""

    def __init__(self, process: Process, topic: str) -> None:
        super().__init__(process, ())
        self.topic = topic
        self._zk = ZkClient(process)

    def emit(self, collection: str, row: tuple, partition=None) -> None:
        self._zk.submit(self.topic, (collection, row))

    def handle(self, msg: Message) -> bool:
        return self._zk.handle(msg)


class _SealedProducer(_BroadcastProducer):
    """Rows of the sealed collections ride punctuated channels, with the
    process as their one producer; every other collection is broadcast."""

    def __init__(
        self,
        process: Process,
        destinations: Sequence[str],
        sealed: Mapping[str, str],
    ) -> None:
        super().__init__(process, destinations)
        self._channels = {
            collection: SealedStreamProducer(process, stream)
            for collection, stream in sealed.items()
        }

    def emit(self, collection: str, row: tuple, partition=None) -> None:
        channel = self._channels.get(collection)
        if channel is None:
            super().emit(collection, row)
            return
        for dst in self.destinations:
            channel.send_record(dst, partition, row)

    def seal(self, partition) -> None:
        for channel in self._channels.values():
            for dst in self.destinations:
                channel.seal(dst, partition)


def strategy_producer(
    process: Process,
    strategy,
    destinations: Sequence[str],
    *,
    stream_collections: Mapping[str, str] | None = None,
):
    """The producer half: how ``process`` ships rows under a strategy.

    The returned object has ``emit(collection, row, partition)``,
    ``seal(partition)`` and ``handle(msg)``; which of broadcast, sealed or
    sequenced delivery they perform is fixed here.
    ``stream_collections`` names the streams this process produces that a
    :class:`SealStrategy` may cover (stream -> collection, the mapping
    :func:`apply_strategy` takes); a process producing none of the sealed
    streams broadcasts.
    """
    if isinstance(strategy, OrderStrategy):
        return _SequencedProducer(process, _order_topic(strategy))
    if isinstance(strategy, SealStrategy):
        produced = stream_collections or {}
        sealed = {
            produced[stream]: stream
            for stream, _key in strategy.partitions
            if stream in produced
        }
        if sealed:
            return _SealedProducer(process, destinations, sealed)
    elif not isinstance(strategy, NoCoordination):
        raise BloomError(f"unknown strategy {strategy!r}")
    return _BroadcastProducer(process, destinations)
