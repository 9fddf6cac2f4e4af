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

__all__ = ["OrderedInbox"]


class OrderedInbox:
    """Reassembles a totally ordered stream from out-of-order deliveries.

    ``handler`` is invoked once per value, in sequence order, with no gaps:
    delivery ``seq`` is held until every delivery below it has been
    applied.  Duplicate sequence numbers (at-least-once networks) are
    applied once.
    """

    def __init__(self, handler: Callable[[Any], None]) -> None:
        self.handler = handler
        self._pending: dict[int, Any] = {}
        # values released so far, which is also the next sequence number due
        self.applied = 0
        self.duplicates = 0

    def offer(self, seq: int, value: Any) -> int:
        """Accept one delivery; returns how many values were released."""
        if seq != self.applied:
            if seq < self.applied or seq in self._pending:
                self.duplicates += 1
            else:
                self._pending[seq] = value
            return 0
        # in order: release it, then whatever it was holding back
        self.applied += 1
        self.handler(value)
        return 1 + self._release_held() if self._pending else 1

    def _release_held(self) -> int:
        """Release the held deliveries the last release made contiguous."""
        pending = self._pending
        released = 0
        while self.applied in pending:
            value = pending.pop(self.applied)
            self.applied += 1
            released += 1
            self.handler(value)
        return released

    @property
    def buffered(self) -> int:
        """Deliveries held back by gaps."""
        return len(self._pending)
