"""A Bloom run holds each click once — pinned as a ratio, not a size.

The CAMPAIGN query counts clicks per ``(campaign, id)`` group over the
``clicks`` table.  The table already holds every row, so the count state
must not hold them again: a ``count`` group keeps one integer
(``repro.bloom.ast._count_step``).  The test feeds one-click ticks over
100 fixed groups and compares what the runtime retains as the log grows
from 2 000 to 10 000 clicks (the row tuples are built beforehand, so they
are not part of it) with the growth of the ``clicks`` table's own set.
Absolute sizes differ between Python versions; the ratio does not.  On
CPython 3.11 it reads 1.00 when the rows are held once and 2.34 when
every count group also keeps a set of its rows.
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.apps.queries import make_report_module
from repro.bloom.runtime import BloomRuntime

GROUPS = 100
EARLY, LATE = 2_000, 10_000
CEILING = 1.25


def test_a_growing_click_log_is_held_once():
    runtime = BloomRuntime(make_report_module("CAMPAIGN", threshold=10**6))
    runtime.insert("request", [(f"q{i}", f"ad{i}") for i in range(GROUPS)])
    runtime.tick()
    rows = [
        (f"c{i % GROUPS}", 0, f"ad{i % GROUPS}", f"u{i}") for i in range(LATE)
    ]

    def feed(start: int, stop: int) -> None:
        for row in rows[start:stop]:
            runtime.insert("click", [row])
            runtime.tick()

    clicks = runtime.storage["clicks"]
    tracemalloc.start()
    try:
        feed(0, EARLY)
        held_early = tracemalloc.get_traced_memory()[0]
        table_early = sys.getsizeof(clicks)
        feed(EARLY, LATE)
        held_late = tracemalloc.get_traced_memory()[0]
        table_late = sys.getsizeof(clicks)
    finally:
        tracemalloc.stop()
    assert len(clicks) == LATE
    assert len(runtime.read("response")) == GROUPS
    ratio = (held_late - held_early) / (table_late - table_early)
    assert ratio <= CEILING, ratio
