"""Total-order delivery: the paper's *ordering strategy* (Section V-B2).

Producers submit values to the sequencer; every subscriber receives
``(topic, seq, value)`` deliveries that may arrive out of order over the
network, so the consumer side holds an :class:`OrderedInbox` that buffers
deliveries and releases the contiguous prefix.  All replicas therefore
apply exactly the same sequence of values — state-machine replication.

See ``docs/architecture.md`` for the full paper-section-to-module map.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.sim.network import Message
from repro.wire import ZK_DELIVER as DELIVER

__all__ = ["OrderedInbox", "OrderedConsumer"]


class OrderedInbox:
    """Reassembles a totally ordered stream from out-of-order deliveries.

    ``handler`` is invoked once per value, in sequence order, with no gaps:
    delivery ``seq`` is held until every delivery below it has been
    applied.  Duplicate sequence numbers (at-least-once networks) are
    applied once.
    """

    def __init__(self, handler: Callable[[Any], None]) -> None:
        self.handler = handler
        self._next_seq = 0
        self._pending: dict[int, Any] = {}
        self.applied = 0
        self.duplicates = 0

    def offer(self, seq: int, value: Any) -> int:
        """Accept one delivery; returns how many values were released."""
        pending = self._pending
        if seq != self._next_seq:
            if seq < self._next_seq or seq in pending:
                self.duplicates += 1
            else:
                pending[seq] = value
            return 0
        # in order: release it, then whatever it was holding back
        released = 0
        while True:
            self._next_seq += 1
            self.applied += 1
            released += 1
            self.handler(value)
            if self._next_seq not in pending:
                return released
            value = pending.pop(self._next_seq)

    @property
    def next_seq(self) -> int:
        """The sequence number the inbox is waiting for."""
        return self._next_seq

    @property
    def buffered(self) -> int:
        """Deliveries held back by gaps."""
        return len(self._pending)


class OrderedConsumer:
    """Per-process demultiplexer for sequencer deliveries.

    A process that subscribes to several topics registers one handler per
    topic and forwards every ``zk.deliver`` message here.
    """

    def __init__(self) -> None:
        self._inboxes: dict[str, OrderedInbox] = {}

    def on_topic(self, topic: str, handler: Callable[[Any], None]) -> OrderedInbox:
        """Register the in-order handler for one topic."""
        inbox = OrderedInbox(handler)
        self._inboxes[topic] = inbox
        return inbox

    def handle(self, msg: Message) -> bool:
        """Route a delivery; returns True when the message was one."""
        if msg.kind != DELIVER:
            return False
        topic, seq, value = msg.payload
        inbox = self._inboxes.get(topic)
        if inbox is not None:
            inbox.offer(seq, value)
        return True
