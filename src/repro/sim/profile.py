"""Kernel profiling: events/sec, per-kind histograms, heap watermarks.

A :class:`SimProfiler` attaches to a simulator through
:attr:`Simulator.profiler` and observes the event loop from inside:

* every fired event increments a per-callable histogram (keyed by the
  callable's qualified name, so ``Network._deliver`` and
  ``BloomNode._do_tick`` show up as distinct rows);
* the :class:`~repro.sim.network.Network` reports each delivered
  message's ``kind`` while a profiler is attached, giving a per-protocol
  breakdown (``bloom.insert`` vs ``seal.data`` vs retries);
* the kernel notes the deepest the heap ever got — the watermark bounds
  the simulator's working set and is the first thing to look at when a
  run is slower than its event count predicts.

Use :meth:`SimProfiler.observe` around the simulated region to collect
wall-clock time and the headline events/sec figure::

    profiler = SimProfiler()
    with profiler.observe(cluster.sim):
        cluster.run(until=40.0)
    print(profiler.events_per_second)

The profiler is measurement only — attaching one never changes virtual
time, event order, or RNG draws, so profiled runs replay identically to
unprofiled ones.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["SimProfiler"]

# the entries of each histogram a snapshot keeps
SNAPSHOT_TOP = 10


class SimProfiler:
    """Counters the kernel and network fill in while attached."""

    __slots__ = (
        "kinds",
        "message_kinds",
        "heap_watermark",
        "wall_seconds",
    )

    def __init__(self) -> None:
        self.kinds: Counter[str] = Counter()
        self.message_kinds: Counter[str] = Counter()
        self.heap_watermark = 0
        self.wall_seconds = 0.0

    # Called by the kernel for every fired event.  ``heap_depth`` is the
    # queue size after the pop; pushes update the watermark directly.
    def _note_fire(self, fn, heap_depth: int) -> None:
        self.kinds[getattr(fn, "__qualname__", repr(fn))] += 1
        if heap_depth > self.heap_watermark:
            self.heap_watermark = heap_depth

    # Called by Network._deliver for every delivered message.
    def _note_message(self, kind: str) -> None:
        self.message_kinds[kind] += 1

    @property
    def events(self) -> int:
        """Fired events while attached: the sum of the per-callable rows."""
        return sum(self.kinds.values())

    @property
    def events_per_second(self) -> float:
        """Fired events per wall-clock second inside :meth:`observe`."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    @contextmanager
    def observe(self, sim):
        """Attach to ``sim`` and time the enclosed block.

        Nested/multiple ``observe`` blocks accumulate: counters keep
        growing and wall time sums, so one profiler can span a sweep of
        runs.
        """
        previous = sim.profiler
        sim.profiler = self
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += time.perf_counter() - start
            sim.profiler = previous

    def snapshot(self) -> dict:
        """A JSON-friendly summary (top-10 histograms, headline rates)."""
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_second": self.events_per_second,
            "heap_watermark": self.heap_watermark,
            "event_kinds": dict(self.kinds.most_common(SNAPSHOT_TOP)),
            "message_kinds": dict(self.message_kinds.most_common(SNAPSHOT_TOP)),
        }

    def __repr__(self) -> str:
        return (
            f"SimProfiler(events={self.events}, "
            f"eps={self.events_per_second:.0f}, "
            f"watermark={self.heap_watermark})"
        )
