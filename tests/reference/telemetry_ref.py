"""The eager hop telemetry, retained as the executable reference.

:class:`EagerSpanTracker` is :class:`repro.obs.spans.SpanTracker` as it
was when every delivery was turned into span events and row index
entries on the hop, and :class:`EagerTelemetry` is
:class:`repro.obs.telemetry.Telemetry` with the ``note_send`` that
classified each send and bumped the plane, kind and topic tallies on the
spot.  The production code records on the hop and derives on first
read; ``tests/obs/test_lazy_telemetry.py`` holds it to these two — same
events in the same order, same drops past the cap, same row index, same
tallies with the same label insertion order.

The cap is read from ``repro.obs.spans._MAX_EVENTS`` at capture time, so
a test that patches it patches both trackers.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.obs import spans
from repro.obs.coordcost import classify_message
from repro.obs.telemetry import Telemetry
from repro.wire import (
    BLOOM_CHAN,
    BLOOM_INSERT,
    SEAL_DATA,
    SEAL_PUNCT,
    ST_ACK,
    ST_CHAN,
    TXN_PREFIX,
    ZK_DELIVER,
    ZK_PREFIX,
    ZK_SUBMIT,
    part_lineage,
)

__all__ = ["EagerSpanTracker", "EagerTelemetry"]


class EagerSpanTracker:
    """The span tracker that derives every event on the hop."""

    def __init__(self) -> None:
        self.events: list[tuple[float, str, str, str, Any]] = []
        self.dropped = 0
        self._lineage_of: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def note_event(
        self, time: float, lineage: str, event: str, node: str = "", detail: Any = None
    ) -> None:
        """Record one span event under ``lineage``."""
        if len(self.events) >= spans._MAX_EVENTS:
            self.dropped += 1
            return
        self.events.append((time, lineage, event, node, detail))

    def note_delivery(self, msg: Any, time: float) -> None:
        """Derive span events from one delivered message's payload."""
        kind, payload, node = msg.kind, msg.payload, msg.dst
        if kind == ST_CHAN:
            src, batch, attempt, seq, frame = payload
            items = 0
            punct = False
            for item in frame:
                if item[0] == "punct":
                    punct = True
                else:
                    items += 1
                    self._index(item[1], f"batch:{batch}")
            event = "punct" if punct and not items else "frame"
            self.note_event(
                time,
                f"batch:{batch}",
                event,
                node,
                f"{src}->{node} attempt={attempt} seq={seq} items={items}"
                + (" +punct" if punct and items else ""),
            )
        elif kind == ST_ACK:
            self.note_event(time, f"batch:{payload}", "ack", node, f"from={msg.src}")
        elif kind == SEAL_DATA:
            _stream, seq, partition, record, producer = payload
            lineage = part_lineage(partition)
            self._index(record, lineage)
            self.note_event(
                time, lineage, "seal-data", node, f"producer={producer} seq={seq}"
            )
        elif kind == SEAL_PUNCT:
            _stream, seq, partition, producer = payload
            self.note_event(
                time, part_lineage(partition), "seal-vote", node, f"producer={producer}"
            )
        elif kind == ZK_SUBMIT:
            topic, value = payload
            self._index(value, f"topic:{topic}")
            self.note_event(time, f"topic:{topic}", "submit", node, f"from={msg.src}")
        elif kind == ZK_DELIVER:
            topic, seq, value = payload
            self._index(value, f"topic:{topic}")
            self.note_event(time, f"topic:{topic}", "deliver", node, f"seq={seq}")
        elif kind == BLOOM_CHAN:
            channel, row = payload
            self._index(row, f"chan:{channel}")
            self.note_event(time, f"chan:{channel}", "row", node, f"from={msg.src}")
        elif kind == BLOOM_INSERT:
            collection, rows = payload
            for row in rows:
                self._index(row, f"chan:{collection}")
            self.note_event(
                time, f"chan:{collection}", "insert", node, f"rows={len(rows)}"
            )
        elif kind.startswith(ZK_PREFIX):
            self.note_event(time, "znode", kind.removeprefix(ZK_PREFIX), node)
        elif kind.startswith(TXN_PREFIX):
            self.note_event(time, f"batch:{payload}", kind, node)
        else:
            self.note_event(time, f"kind:{kind}", "message", node)

    def _index(self, row: Any, lineage: str) -> None:
        """Map a data row (and its flattened tagged form) to its lineage."""
        if not isinstance(row, tuple):
            return
        table = self._lineage_of
        if row not in table:
            table[row] = lineage
        # sequencer values are often ("table", row); replicas commit the
        # flattened ("table", *row), so index that spelling too
        if len(row) == 2 and isinstance(row[1], tuple):
            flat = (row[0], *row[1])
            if flat not in table:
                table[flat] = lineage

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lineage_of(self, row: Any) -> str | None:
        """The lineage a committed row was observed under, if any.

        Tries the row as-is, then without a leading tag element (replica
        stores commonly commit ``("table", *wire_row)``).
        """
        if not isinstance(row, tuple):
            return None
        hit = self._lineage_of.get(row)
        if hit is not None:
            return hit
        if len(row) > 1:
            return self._lineage_of.get(row[1:])
        return None

    def lineages(self) -> Counter:
        """Event counts per lineage id."""
        counts: Counter = Counter()
        for _time, lineage, _event, _node, _detail in self.events:
            counts[lineage] += 1
        return counts

    def slice_for(self, lineage: str) -> list[tuple[float, str, str, str, Any]]:
        """All span events for one lineage, in capture (= time) order."""
        return [event for event in self.events if event[1] == lineage]

    def to_rows(self) -> list[dict[str, Any]]:
        """JSON-able rows for ``spans.jsonl``."""
        return [
            {
                "t": time,
                "lineage": lineage,
                "event": event,
                "node": node,
                "detail": detail if detail is None or isinstance(detail, (str, int, float)) else repr(detail),
            }
            for time, lineage, event, node, detail in self.events
        ]

    def __repr__(self) -> str:
        return f"EagerSpanTracker(events={len(self.events)}, dropped={self.dropped})"


class EagerTelemetry(Telemetry):
    """A hub whose sends are classified, and deliveries derived, on the hop."""

    def __init__(self, *, spans: bool = False, profiler: Any = None) -> None:
        super().__init__(spans=False, profiler=profiler)
        self.spans = EagerSpanTracker() if spans else None

    def note_send(self, kind: str, payload: Any) -> None:
        """Account one outbound message into its plane (see coordcost)."""
        plane, topic = classify_message(kind, payload)
        tallies = self.tallies()
        tallies["planes"][plane] += 1
        tallies["kinds"][kind] += 1
        if topic:
            tallies["topics"][topic] += 1
