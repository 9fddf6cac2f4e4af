"""Sample statistics, span self-time and failed-operation accounting.

Pure helpers with no dependency on ``repro`` — the harness self-tests
exercise them directly.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections.abc import Callable, Iterable, Sequence
from typing import Any

__all__ = [
    "Calibrator",
    "Ops",
    "Span",
    "Tracer",
    "median",
    "percentile",
    "quartiles",
    "self_times",
    "slowdown",
    "summary",
]

# A percentile is reported only when at least this many samples lie
# beyond it (choosing-metrics §1): p95 needs 200 samples, p90 needs 100.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (the driver's definition); a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def percentile(values: Sequence[float], pct: float) -> float | None:
    """The ``pct``-th percentile (nearest rank), or ``None`` when fewer
    than :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be inside (0, 100), got {pct}")
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil
    if len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[int(rank) - 1]


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, q3 = quartiles(values)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def _chunk() -> int:
    """A fixed amount of interpreter work (dict stores and integer
    arithmetic) that touches nothing of the program under test."""
    total = 0
    table = {}
    for i in range(50_000):
        table[i & 1023] = total
        total += i * i % 7
    return total


class Calibrator:
    """How slow the host is right now, from a fixed loop timed next to the work.

    The reference host is a few cores of a shared machine whose speed
    drifts by tens of per cent over seconds to minutes (its neighbours'
    load; CPU time drifts with wall time, so it is not stolen time).
    Blocks of :func:`_chunk` interleaved with the timed operations see
    the same drift, so dividing a measured time by :func:`slowdown`
    gives seconds at the reference host's undisturbed speed.  The loop
    never changes with the program, so a slower program still reads slower.
    """

    # one chunk on the undisturbed reference host (its fastest of 30 000)
    CHUNK_REFERENCE_S = 0.0035

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.samples: list[float] = []

    def block(self, seconds: float) -> None:
        """Time chunks for ``seconds``, at least one chunk."""
        deadline = self.clock() + seconds
        while True:
            start = self.clock()
            _chunk()
            now = self.clock()
            self.samples.append(now - start)
            if now >= deadline:
                return

    def drain(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def slowdown(samples: Sequence[float]) -> float:
    """Mean chunk time over the reference chunk time: 1.0 on the
    undisturbed reference host, 1.3 when it runs 30 % slow."""
    return statistics.fmean(samples) / Calibrator.CHUNK_REFERENCE_S


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Span:
    """One timed call at a layer boundary.  ``trace`` is shared by every
    span of one operation (cell); ``parent`` is the causing span's id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are written out only at exit."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(
        self, name: str, trace: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run ``fn`` inside a span named ``name``; nested calls become
        children of the enclosing span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, trace)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = self.clock()

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    siblings are merged, so covered time is never subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# failed-operation accounting
# ----------------------------------------------------------------------
class Ops:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails when it raises or when the system's own invariant
    for its result does not hold; failures count against attempts.

    The wall and CPU time spent inside operations accumulate in
    ``busy_s`` / ``busy_cpu_s`` (the caller resets them per pass).  With
    a ``calibrator``, a calibration block runs before each operation,
    outside the timing, sized to the operation before it.
    """

    # calibration time per second of operation, and the shortest block
    CALIBRATION_SHARE = 0.2
    MIN_BLOCK_S = 0.01

    def __init__(self, calibrator: Calibrator | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.calibrator = calibrator
        self.busy_s = 0.0
        self.busy_cpu_s = 0.0
        self._last_s = 0.0

    def calibrate(self) -> None:
        """One calibration block beside the operation that just ended."""
        if self.calibrator is not None:
            self.calibrator.block(max(self.MIN_BLOCK_S, self.CALIBRATION_SHARE * self._last_s))

    def timed(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as (part of) an operation, on the pass's clock."""
        self.calibrate()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._last_s = time.perf_counter() - start
            self.busy_s += self._last_s
            self.busy_cpu_s += time.process_time() - cpu

    def fail(self, name: str, reason: str) -> None:
        """Mark an operation already counted as attempted as failed."""
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{name}: {reason}")

    def record(self, name: str, violation: str | None) -> None:
        """Count one attempted operation; ``violation`` (a one-line
        reason) marks it failed."""
        self.attempted += 1
        if violation is not None:
            self.fail(name, violation)

    def attempt(
        self,
        name: str,
        fn: Callable[[], Any],
        invariant: Callable[[Any], str | None] | None = None,
    ) -> Any:
        """Run one operation; returns its result, or ``None`` if it failed.

        ``invariant`` maps the result to ``None`` (holds) or a one-line
        description of the violation.
        """
        try:
            result = self.timed(fn)
        except Exception as exc:  # the boundary: a raising operation is a failed operation
            self.record(name, f"raised {type(exc).__name__}: {exc}")
            return None
        violation = invariant(result) if invariant is not None else None
        self.record(name, violation)
        return None if violation is not None else result
