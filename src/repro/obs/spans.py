"""Causal span tracing: from a committed row back to what produced it.

A :class:`SpanTracker` derives **lineage ids** observationally from the
messages the runtime delivers — channel frames and acks carry their
batch id, sealed-stream records their partition, sequencer traffic its
topic — plus the explicit decision notes (replays, seal votes and
releases, sequencer commits) the instrumented runtime emits.  Nothing is
ever added to a payload, so traces stay byte-identical whether or not a
tracker is attached.  Hop telemetry is *recorded* on the hop — one
append per delivery or decision note — and *derived* on the first read
(see :class:`SpanTracker`), so a run whose spans nobody reads pays for
the appends only.

Lineage vocabulary:

``batch:<n>``     a storm batch (frames, acks, replays, commits)
``part:<p>``      a sealed-stream partition (records, votes, releases)
``topic:<t>``     a sequencer topic (submissions, ordered deliveries)
``chan:<c>``      a bloom channel or collection insert
``znode``         registry reads

While tracing, every data row seen inside a frame, sealed record,
sequencer value, or bloom insert is indexed to its lineage, so
:func:`divergence_explain` can take the rows two replicas (or a replica
and the ground truth) dispute and attach the *minimal causal slice* —
the ordered span events for those rows' lineages — to a non-ExactlyOnce
oracle verdict.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

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

__all__ = ["SpanTracker", "divergence_explain"]


_MAX_EVENTS = 250_000  # hard cap; beyond it events are counted, not kept
_MAX_SLICE_ROWS = 2  # disputed rows explained per verdict
_SLICE_LIMIT = 10  # span events shown per slice (head + tail)


class SpanTracker:
    """Collects span events ``(time, lineage, event, node, detail)``.

    Recorded on the hop, derived on read: :meth:`note_delivery` and
    :meth:`note_event` each append one entry to a raw log, and the first
    read of :attr:`events`, :attr:`dropped` or :meth:`lineage_of` (or of
    any query built on them) derives the log into span events and the row
    index — the same events in the same order, under the same
    ``_MAX_EVENTS`` cap, as deriving them on every delivery would give.
    Most trackers a sweep attaches are never read, so most runs never
    pay for a derivation at all.
    """

    def __init__(self) -> None:
        # capture order; a delivery is (time, msg), an event its own row
        self._log: list[tuple] = []
        self._events: list[tuple[float, str, str, str, Any]] = []
        self._dropped = 0
        self._lineage_of: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def note_event(
        self, time: float, lineage: str, event: str, node: str = "", detail: Any = None
    ) -> None:
        """Record one span event under ``lineage``."""
        self._log.append((time, lineage, event, node, detail))

    def note_delivery(self, msg: Any, time: float) -> None:
        """Record one delivered message; its span events come on read."""
        self._log.append((time, msg))

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[tuple[float, str, str, str, Any]]:
        """Span events in capture (= time) order, at most ``_MAX_EVENTS``."""
        if self._log:
            self._derive()
        return self._events

    @property
    def dropped(self) -> int:
        """Span events past the cap: counted, not kept."""
        if self._log:
            self._derive()
        return self._dropped

    def _derive(self) -> None:
        log, self._log = self._log, []
        for entry in log:
            if len(entry) == 2:
                self._derive_delivery(entry[1], entry[0])
            else:
                self._keep(entry)

    def _keep(self, event: tuple[float, str, str, str, Any]) -> None:
        if len(self._events) >= _MAX_EVENTS:
            self._dropped += 1
        else:
            self._events.append(event)

    def _derive_delivery(self, msg: Any, time: float) -> None:
        """Span events and row index entries from one delivered message."""
        kind, payload, node = msg.kind, msg.payload, msg.dst
        keep = self._keep
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
            keep((
                time,
                f"batch:{batch}",
                event,
                node,
                f"{src}->{node} attempt={attempt} seq={seq} items={items}"
                + (" +punct" if punct and items else ""),
            ))
        elif kind == ST_ACK:
            keep((time, f"batch:{payload}", "ack", node, f"from={msg.src}"))
        elif kind == SEAL_DATA:
            _stream, seq, partition, record, producer = payload
            lineage = part_lineage(partition)
            self._index(record, lineage)
            keep((time, lineage, "seal-data", node, f"producer={producer} seq={seq}"))
        elif kind == SEAL_PUNCT:
            _stream, seq, partition, producer = payload
            keep((time, part_lineage(partition), "seal-vote", node, f"producer={producer}"))
        elif kind == ZK_SUBMIT:
            topic, value = payload
            self._index(value, f"topic:{topic}")
            keep((time, f"topic:{topic}", "submit", node, f"from={msg.src}"))
        elif kind == ZK_DELIVER:
            topic, seq, value = payload
            self._index(value, f"topic:{topic}")
            keep((time, f"topic:{topic}", "deliver", node, f"seq={seq}"))
        elif kind == BLOOM_CHAN:
            channel, row = payload
            self._index(row, f"chan:{channel}")
            keep((time, f"chan:{channel}", "row", node, f"from={msg.src}"))
        elif kind == BLOOM_INSERT:
            collection, rows = payload
            for row in rows:
                self._index(row, f"chan:{collection}")
            keep((time, f"chan:{collection}", "insert", node, f"rows={len(rows)}"))
        elif kind.startswith(ZK_PREFIX):
            keep((time, "znode", kind.removeprefix(ZK_PREFIX), node, None))
        elif kind.startswith(TXN_PREFIX):
            keep((time, f"batch:{payload}", kind, node, None))
        else:
            keep((time, f"kind:{kind}", "message", node, None))

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
        if self._log:
            self._derive()
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
        return f"SpanTracker(events={len(self.events)}, dropped={self.dropped})"


# ----------------------------------------------------------------------
# the oracle's causal-slice helper
# ----------------------------------------------------------------------
def format_slice(
    spans: SpanTracker, lineage: str, *, limit: int = _SLICE_LIMIT
) -> list[str]:
    """Render one lineage's timeline, eliding the middle past ``limit``."""
    events = spans.slice_for(lineage)
    if not events:
        return []
    shown: list[tuple[float, str, str, str, Any] | None]
    if len(events) <= limit:
        shown = list(events)
    else:
        head, tail = limit // 2, limit - limit // 2
        shown = list(events[:head]) + [None] + list(events[-tail:])
    lines = []
    for event in shown:
        if event is None:
            lines.append(f"    ... ({len(events) - limit} events elided)")
            continue
        time, _lineage, name, node, detail = event
        suffix = f" {detail}" if detail not in (None, "") else ""
        lines.append(f"    t={time:.4f} {node or '?'} {name}{suffix}")
    return lines


def _disputed_rows(observation) -> list:
    """Rows the replicas (or the ground truth) disagree about, ordered."""
    rows: set = set()
    names = sorted(observation.committed)
    if names:
        reference = observation.committed[names[0]]
        for name in names[1:]:
            rows |= observation.committed[name] ^ reference
    if not rows:
        names = sorted(observation.emitted)
        if names:
            reference = observation.emitted[names[0]]
            for name in names[1:]:
                rows |= observation.emitted[name] ^ reference
    if not rows and observation.truth is not None:
        for name in sorted(observation.committed):
            rows |= observation.committed[name] ^ observation.truth
    return sorted(rows, key=repr)


def divergence_explain(observation) -> tuple[str, ...]:
    """The minimal causal slice behind one run's inconsistency.

    Given a :class:`~repro.chaos.oracle.RunObservation` whose ``spans``
    field carries the run's :class:`SpanTracker`, picks the rows the
    replicas (or ground truth) dispute, resolves each to its captured
    lineage, and returns the rendered span timeline for those lineages —
    the frames, retries, votes, and sequencer decisions that produced the
    disputed row.  Returns ``()`` when no spans were captured or no
    disputed row resolves to a lineage.
    """
    spans = getattr(observation, "spans", None)
    if spans is None or not getattr(spans, "events", None):
        return ()
    lines: list[str] = []
    explained: set[str] = set()
    for row in _disputed_rows(observation):
        if len(explained) >= _MAX_SLICE_ROWS:
            break
        lineage = spans.lineage_of(row)
        if lineage is None or lineage in explained:
            continue
        rendered = format_slice(spans, lineage)
        if not rendered:
            continue
        explained.add(lineage)
        lines.append(
            f"causal slice for {row!r} ({lineage}, "
            f"{len(spans.slice_for(lineage))} events):"
        )
        lines.extend(rendered)
    return tuple(lines)
