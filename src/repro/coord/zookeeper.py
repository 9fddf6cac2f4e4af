"""A Zookeeper-like coordination service for the simulator.

The paper's ordering strategies use Zookeeper in two roles:

* a **sequencer** (atomic broadcast): clients submit values to a topic, the
  service assigns a global sequence number and broadcasts the value to all
  subscribers of the topic, who apply deliveries in sequence order;
* a small **znode store** used by the seal strategy to look up the set of
  producers responsible for each partition ("one call to Zookeeper per
  campaign", Section VIII-B3).

The performance-relevant structure is the *serialization point*: all write
operations funnel through one logical leader that commits each operation
with a quorum round trip before starting the next.  The service is modeled
as a single-server queue with per-operation service times, which is what
produces the queueing collapse of the ordered strategy when load doubles
(paper Figure 13).

See ``docs/architecture.md`` for the full paper-section-to-module map.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.sim.network import Message, Network, Process
from repro.sim.trace import Trace
from repro.wire import (
    ZK_DELIVER as DELIVER,
    ZK_GET as GET,
    ZK_GET_REPLY as GET_REPLY,
    ZK_KINDS,
    ZK_SUBMIT as SUBMIT,
)

__all__ = [
    "SERVICE_NAME",
    "ZK_KINDS",
    "ZookeeperService",
    "ZkClient",
    "install_zookeeper",
    "recorded_order",
]


# The service's process name: clients address it by this name alone.
SERVICE_NAME = "zookeeper"
# Virtual seconds for a read, served without the quorum round trip.
READ_SERVICE = 0.001


class ZookeeperService(Process):
    """The simulated coordination service (leader's-eye view).

    Parameters
    ----------
    write_service:
        Virtual seconds the leader spends committing one write (quorum
        round trip plus log fsync).  Writes serialize: this is the
        sequencer's bottleneck.  A read costs :data:`READ_SERVICE`.
    trace:
        Where the committed total order of every topic is recorded, as
        ``zk.order:<topic>`` events; a service built without one records
        into a trace of its own.
    """

    def __init__(
        self,
        *,
        write_service: float = 0.004,
        trace: Trace | None = None,
    ) -> None:
        super().__init__(SERVICE_NAME)
        self.write_service = write_service
        self.trace = trace if trace is not None else Trace()
        self._subscribers: dict[str, list[str]] = {}
        self._sequences: dict[str, int] = {}
        self._order_events: dict[str, str] = {}  # topic -> "zk.order:<topic>"
        self._znodes: dict[str, Any] = {}
        self._queue: deque[tuple[str, Message]] = deque()
        self._busy = False

    # ------------------------------------------------------------------
    # control-plane configuration (pre-run, not messaging)
    # ------------------------------------------------------------------
    def subscribe(self, topic: str, process_name: str) -> None:
        """Statically subscribe a process to ordered deliveries of a topic."""
        self._subscribers.setdefault(topic, [])
        if process_name not in self._subscribers[topic]:
            self._subscribers[topic].append(process_name)

    def preload_znode(self, path: str, value: Any) -> None:
        """Populate a znode before the run starts (test/bench setup)."""
        self._znodes[path] = value

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def recv(self, msg: Message) -> None:
        if msg.kind not in (SUBMIT, GET):
            raise SimulationError(f"zookeeper got unexpected message {msg.kind}")
        self._queue.append((msg.kind, msg))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        kind, msg = self._queue.popleft()
        service = READ_SERVICE if kind == GET else self.write_service
        self.sim.post(service, self._complete, kind, msg)

    def _complete(self, kind: str, msg: Message) -> None:
        telemetry = self.sim.telemetry
        if telemetry is not None:
            # The leader serialized this operation for one service period:
            # that busy time is the strategy's simulated-time overhead.
            if kind == SUBMIT:
                telemetry.note_decision(
                    "sequencer",
                    topic=msg.payload[0],
                    overhead=self.write_service,
                    lineage=f"topic:{msg.payload[0]}",
                    node=self.name,
                    time=self.now,
                    detail=f"seq={self._sequences.get(msg.payload[0], 0)}",
                )
            else:
                telemetry.note_decision(
                    "zk_read", topic=str(msg.payload), overhead=READ_SERVICE
                )
        if kind == SUBMIT:
            topic, value = msg.payload
            seq = self._sequences.get(topic, 0)
            self._sequences[topic] = seq + 1
            event = self._order_events.get(topic)
            if event is None:
                event = self._order_events[topic] = f"zk.order:{topic}"
            self.trace.record(self.now, self.name, event, (seq, value))
            delivery = (topic, seq, value)
            for subscriber in self._subscribers.get(topic, ()):
                self.send(subscriber, DELIVER, delivery)
        else:  # GET
            path = msg.payload
            self.send(msg.src, GET_REPLY, (path, self._znodes.get(path)))
        self._busy = False
        self._pump()


class ZkClient:
    """Client-side helpers for talking to a :class:`ZookeeperService`.

    Mix into (or compose with) a :class:`~repro.sim.network.Process`:
    the helpers send the request messages and the owning process routes
    replies back through the callbacks registered here.
    """

    def __init__(self, process: Process) -> None:
        self.process = process
        self._get_callbacks: dict[str, list[Callable[[Any], None]]] = {}

    def submit(self, topic: str, value: Any) -> None:
        """Submit a value for total-order broadcast on ``topic``."""
        self.process.send(SERVICE_NAME, SUBMIT, (topic, value))

    def get_znode(self, path: str, callback: Callable[[Any], None]) -> None:
        """Asynchronously read a znode; ``callback`` gets its value."""
        self._get_callbacks.setdefault(path, []).append(callback)
        self.process.send(SERVICE_NAME, GET, path)

    def handle(self, msg: Message) -> bool:
        """Route a zookeeper reply; returns True when the message was one."""
        if msg.kind == GET_REPLY:
            path, value = msg.payload
            callbacks = self._get_callbacks.get(path, [])
            if callbacks:
                callbacks.pop(0)(value)
            return True
        return False


def install_zookeeper(
    network: Network,
    *,
    write_service: float = 0.004,
    trace: Trace | None = None,
) -> ZookeeperService:
    """Create and register a service instance on a network.

    Pass the run's :class:`~repro.sim.trace.Trace` to record the committed
    total order of every topic as ``zk.order:<topic>`` events in it.
    """
    service = ZookeeperService(write_service=write_service, trace=trace)
    network.register(service)
    return service


def recorded_order(trace: Trace, topic: str) -> tuple:
    """The order the sequencer committed on ``topic``, read back from the
    ``zk.order:<topic>`` records of a run's trace (empty when nothing was
    sequenced)."""
    return tuple(value for _seq, value in trace.data_series(f"zk.order:{topic}"))
