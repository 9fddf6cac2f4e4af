"""Distributed Bloom: runtimes on simulated nodes exchanging channels.

A :class:`BloomNode` hosts one runtime; channel tuples route over the
simulated network by their location-specifier column.  Nodes tick lazily —
whenever input is pending, until a step would replay the last (see
:attr:`~repro.bloom.runtime.BloomRuntime.quiescent`) — so virtual time
advances with message flow; every scheduled tick is a timestep (see
:meth:`~repro.bloom.runtime.BloomRuntime.tick`), a no-op one included.

Input *delivery policies* implement the coordination strategies the
analyzer synthesizes (see :mod:`repro.bloom.rewrite`): plain asynchronous
delivery, totally ordered delivery through the sequencer, or seal-based
partition buffering.  A node dispatches each message by its kind to one
handler: channel rows and inserts by default, and whatever kinds a
delivery policy routes to itself (:meth:`BloomNode.route`) when it is
wired.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.coord.zookeeper import ZK_KINDS
from repro.errors import BloomError
from repro.sim.events import make_simulator
from repro.sim.network import LatencyModel, Message, Process, make_network
from repro.sim.trace import Trace
from repro.wire import BLOOM_CHAN as CHANNEL_MSG, BLOOM_INSERT as INSERT_MSG

__all__ = [
    "BloomNode", "BloomCluster", "CHANNEL_MSG", "INSERT_MSG", "TICK_DELAY", "ZK_KINDS",
]

# Virtual seconds from a node's first pending input to the tick that
# evaluates it: every delivery inside that window joins the same tick.
TICK_DELAY = 0.0005


class BloomNode(Process):
    """One simulated node running one Bloom module instance."""

    def __init__(
        self, name: str, module: BloomModule, *, trace: Trace | None = None
    ) -> None:
        super().__init__(name)
        self.module = module
        self.trace = trace
        self.runtime = BloomRuntime(module, on_channel_send=self._channel_send)
        self.outputs_log: dict[str, set[tuple]] = {
            decl.name: set() for decl in module.outputs
        }
        self._last_outputs: dict[str, frozenset[tuple]] = {}
        self._wake = None
        self._routes: dict[str, Callable[[Message], None]] = {
            CHANNEL_MSG: self._channel_row,
            INSERT_MSG: self._insert_rows,
        }
        self.on_tick: Callable[[dict[str, frozenset[tuple]]], None] | None = None

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def route(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Hand every message of ``kind`` to ``handler`` from now on.

        A coordination adapter routes the kinds it takes when it is wired;
        a kind has one handler, so routing it again replaces the last.
        """
        self._routes[kind] = handler

    def recv(self, msg: Message) -> None:
        handler = self._routes.get(msg.kind)
        if handler is None:
            raise BloomError(f"node {self.name} got unexpected message {msg.kind}")
        handler(msg)

    def _channel_row(self, msg: Message) -> None:
        channel, row = msg.payload
        self.runtime.deliver(channel, row)
        self.schedule_tick()

    def _insert_rows(self, msg: Message) -> None:
        collection, rows = msg.payload
        self.runtime.insert(collection, rows)
        self.schedule_tick()

    def _channel_send(self, channel: str, address: str, row: tuple) -> None:
        self.send(address, CHANNEL_MSG, (channel, row))

    # ------------------------------------------------------------------
    # external input and ticking
    # ------------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[tuple]) -> None:
        """Queue external tuples and schedule a timestep."""
        self.runtime.insert(collection, rows)
        self.schedule_tick()

    def schedule_tick(self) -> None:
        # A kernel wakeup, not a heap entry per call: arming an armed
        # waker is a no-op, so an idle node costs nothing and a busy one
        # coalesces any number of deliveries into the next tick.
        wake = self._wake
        if wake is None:
            wake = self._wake = self.sim.waker(TICK_DELAY, self._do_tick)
        wake.arm()

    def _do_tick(self) -> None:
        runtime = self.runtime
        outputs = runtime.tick()
        if outputs is not self._last_outputs:  # the same dict holds only logged sets
            self._log_outputs(outputs)
        if self.on_tick is not None:
            self.on_tick(outputs)
        if runtime.has_pending_input and not runtime.quiescent:
            self.schedule_tick()

    def _log_outputs(self, outputs: dict[str, frozenset[tuple]]) -> None:
        """Add what a tick's outputs hold beyond the log to it (and trace it)."""
        last, self._last_outputs = self._last_outputs, outputs
        for name, rows in outputs.items():
            if rows is last.get(name):
                continue  # the very set already logged: nothing is fresh
            fresh = rows - self.outputs_log[name]
            if fresh and self.trace is not None:
                for row in sorted(fresh):
                    self.trace.record(self.now, self.name, f"output:{name}", row)
            self.outputs_log[name] |= fresh

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def read(self, collection: str) -> frozenset[tuple]:
        return self.runtime.read(collection)

    def output_history(self, name: str) -> frozenset[tuple]:
        """Every tuple the output interface has ever emitted."""
        return frozenset(self.outputs_log[name])


class BloomCluster:
    """A set of Bloom nodes on one simulated network."""

    def __init__(
        self,
        *,
        seed: int = 0,
        latency: LatencyModel | None = None,
        reliable_kinds: Iterable[str] = ZK_KINDS,
        retry_crashed: bool = False,
    ) -> None:
        self.sim = make_simulator(seed=seed)
        self.network = make_network(
            self.sim,
            latency=latency or LatencyModel(base=0.001, jitter=0.003),
            reliable_kinds=reliable_kinds,
            retry_crashed=retry_crashed,
        )
        self.trace = Trace()
        self._nodes: dict[str, BloomNode] = {}

    def add_node(self, name: str, module: BloomModule) -> BloomNode:
        """Create, register, and return a node hosting ``module``."""
        node = BloomNode(name, module, trace=self.trace)
        self.network.register(node)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> BloomNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise BloomError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> tuple[BloomNode, ...]:
        return tuple(self._nodes.values())

    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        self.network.start()
        return self.sim.run(until=until, max_events=max_events)
