"""Execution traces for simulated runs.

A :class:`Trace` is an append-only log of ``(time, source, event, data)``
records.  Benchmarks use traces to build the "records processed over time"
series of the paper's Figures 12-14; tests use them to assert on delivery
and processing orders.

Records are stored internally as plain tuples and materialized into
:class:`TraceRecord` objects only when a query reads them back — at
paper scale a run appends hundreds of thousands of records, and the hot
path must not pay a dataclass construction per append.  High-rate
sources may also *aggregate*: one record per batch whose ``data`` is an
integer weight (how many underlying items it stands for), read back
through :meth:`Trace.total` and ``timeline(..., weighted=True)``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from repro.errors import SimulationError

__all__ = ["TraceRecord", "Trace"]


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    source: str
    event: str
    data: Any = None


def _weight(data: Any) -> int:
    """The number of items a record stands for (1 unless data is an int)."""
    return data if type(data) is int else 1


class Trace:
    """An append-only, queryable event log."""

    def __init__(self) -> None:
        self._rows: list[tuple[float, str, str, Any]] = []

    def record(self, time: float, source: str, event: str, data: Any = None) -> None:
        """Append one record (times must be supplied by the simulator)."""
        self._rows.append((time, source, event, data))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return (TraceRecord(*row) for row in self._rows)

    def select(
        self, *, event: str | None = None, source: str | None = None
    ) -> list[TraceRecord]:
        """Filter records by event name and/or source."""
        out = []
        for row in self._rows:
            if event is not None and row[2] != event:
                continue
            if source is not None and row[1] != source:
                continue
            out.append(TraceRecord(*row))
        return out

    def count(self, event: str) -> int:
        """Number of records with the given event name."""
        return sum(1 for row in self._rows if row[2] == event)

    def total(self, event: str) -> int:
        """Sum of record weights for ``event``.

        A record whose ``data`` is an integer stands for that many items
        (an aggregated batch); any other record counts as one.  For
        unweighted events this equals :meth:`count`.
        """
        return sum(_weight(row[3]) for row in self._rows if row[2] == event)

    def timeline(
        self, event: str, *, bucket: float = 1.0, weighted: bool = False
    ) -> list[tuple[float, int]]:
        """Cumulative count of ``event`` over time, sampled per bucket.

        Returns ``(bucket_end_time, cumulative_count)`` pairs — the series
        plotted in the paper's Figures 12-14.  With ``weighted=True`` each
        record contributes its integer ``data`` weight (see :meth:`total`),
        so aggregated probes produce the same series their per-item
        predecessors did.  ``bucket`` must be positive and finite.  The
        series ends at the first edge at or past the last record, so every
        record is counted, even when one bucket spans them all.
        """
        if not 0 < bucket < math.inf:
            raise SimulationError(
                f"timeline bucket must be > 0 and finite, got {bucket}"
            )
        points = sorted(
            (row[0], _weight(row[3]) if weighted else 1)
            for row in self._rows
            if row[2] == event
        )
        if not points:
            return []
        series: list[tuple[float, int]] = []
        horizon = points[-1][0]
        edge = bucket
        count = 0
        index = 0
        while edge < horizon:
            # the last point lies past this edge, so this loop stops at it
            while points[index][0] <= edge:
                count += points[index][1]
                index += 1
            series.append((edge, count))
            edge += bucket
        series.append((edge, count + sum(weight for _t, weight in points[index:])))
        return series

    def data_series(self, event: str) -> list:
        """The ``data`` payloads of one event, in record (= time) order.

        This is how recorded decision logs are read back — e.g. the
        sequencer's committed order (``zk.order:<topic>`` records carry
        ``(seq, value)``), which the order-conditioned consistency oracle
        conditions its cross-run comparison on.
        """
        return [row[3] for row in self._rows if row[2] == event]

