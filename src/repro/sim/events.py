"""The high-throughput discrete-event kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of scheduled
events.  Determinism is a design requirement (the evaluation depends on
it): all randomness flows through the simulator's seeded
:class:`random.Random`, and events scheduled at the same instant fire in
schedule order, so a run is a pure function of its seed and workload.

This is the only kernel in ``src/``.  It differs from the seed scheduler
(kept test-only under ``tests/reference/``) by three structural changes,
none of which may alter observable behavior — the differential suite in
``tests/sim/`` swaps the reference in for :class:`Simulator` and holds
both to byte-identical traces:

* **slotted event records** — an event is a plain 4-slot list
  ``[time, seq, fn, args]``, made fresh per event and dropped once fired
  (its ``fn`` slot cleared, so a stale :class:`EventHandle` can tell).
  The heap orders records by C-level list comparison (``time`` then the
  unique ``seq``; ``fn`` is never reached), so there is no per-event
  handle object, no ``__lt__`` dispatch, and — via :meth:`Simulator.post`
  — no per-message lambda closure.  There is no free pool: allocating a
  4-list costs less than recycling one;
* **a pop-first loop** — :meth:`Simulator.run` pops each record once
  and fires it, pushing back only the one record that ends the run (past
  ``until`` or beyond ``max_events``); the fired count is a local of the
  loop, stored on :attr:`Simulator.fired` once per run, not once per
  event;
* **wake-based process scheduling** — a :class:`Waker` is the kernel's
  coalesced timer: arming an armed waker is a no-op, so an idle component
  (e.g. a :class:`~repro.bloom.cluster.BloomNode` between deliveries)
  costs zero heap entries and is never polled.  Its wakeup is a plain
  function posted with the waker as its argument, not a method bound to
  it, so a waker holds no reference to itself and dies with its owner.

A run's end of life is :meth:`repro.sim.network.Network.close`: it drops
the pending records along with the processes they would call, so a
finished run is freed by reference counting instead of waiting, as
cyclic garbage, for the collector.

Cancellation is a handle-side concern: :meth:`Simulator.schedule` returns
an :class:`EventHandle` whose ``cancel`` kills the record in place (the
heap lazily discards it), while the fire-and-forget :meth:`Simulator.post`
skips handle allocation entirely.  :attr:`Simulator.pending` counts live
events only — cancelled records awaiting lazy removal are not pending.

A run is instrumented at two hooks on the kernel.  :attr:`Simulator.profiler`
is the per-event one (:mod:`repro.sim.profile`): when detached the hot
loop pays one ``None`` check per event.  :attr:`Simulator.observers` is
the run's one delivery-observer list: the network calls each entry with
every delivered message, so span capture, a profiler's message count and
a test's callback are entries of it, and an unwatched run's hop loops
over an empty list.

A run's context — the telemetry hub it reports to and the socket
transport it runs on — is one context variable, set by :func:`run_scope`
and read by :func:`make_simulator` when a cluster builds its kernel.  A
context variable is per thread and per asyncio task, so concurrent runs
never see each other's hub.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import random
import sys
from collections.abc import Callable
from heapq import heappop, heappush

from repro.errors import SimulationError

__all__ = [
    "EventHandle",
    "Simulator",
    "Waker",
    "make_simulator",
    "run_scope",
]

# Event records are plain lists so heapq compares them at C speed:
# [time, seq, fn, args].  ``seq`` is unique per simulator, so comparison
# never reaches the callable.  A record whose fn slot is None is dead
# (cancelled or already fired); a cancelled one is discarded lazily on pop.
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class EventHandle:
    """A cancellable reference to one scheduled event.

    Holds the event's own record, which no other event ever reuses: the
    kernel clears its ``fn`` slot when it fires, so ``cancel`` after the
    event fired (or was cancelled) finds ``None`` there and does nothing.
    """

    __slots__ = ("_sim", "_rec", "time", "seq", "cancelled")

    def __init__(self, sim: "Simulator", rec: list) -> None:
        self._sim = sim
        self._rec = rec
        self.time = rec[_TIME]
        self.seq = rec[_SEQ]
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True
        rec = self._rec
        if rec[_FN] is not None:
            rec[_FN] = None
            rec[_ARGS] = ()
            self._sim._cancelled += 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Waker:
    """A coalesced kernel wakeup: at most one pending event per waker.

    ``arm()`` schedules ``fn`` to fire ``delay`` from now — unless a
    wakeup is already pending, in which case it is a no-op.  The waker
    disarms itself immediately before calling ``fn``, so ``fn`` may
    re-arm it (the Bloom node tick loop).  This is how a process sleeps:
    no pending wakeup, no heap entry, never polled.

    The wakeup it posts is the plain function :meth:`_fire` with the
    waker as its argument, not a method bound to the waker: a waker holds
    no reference to itself, so it lives exactly as long as its owner (and
    its pending record) and is freed by reference counting, not found
    later by the cyclic collector with everything ``fn`` reaches.
    """

    __slots__ = ("sim", "delay", "fn", "armed")

    def __init__(self, sim, delay: float, fn: Callable[[], None]) -> None:
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"waker delay must be >= 0, got {delay}")
        self.sim = sim
        self.delay = delay
        self.fn = fn
        self.armed = False

    def arm(self) -> None:
        """Schedule the wakeup unless one is already pending."""
        if not self.armed:
            self.armed = True
            self.sim.post(self.delay, Waker._fire, self)

    @staticmethod  # not module-level: profiles still name it Waker._fire
    def _fire(waker: "Waker") -> None:
        waker.armed = False
        waker.fn()

    def __repr__(self) -> str:
        state = "armed" if self.armed else "idle"
        return f"Waker(delay={self.delay}, {state})"


class Simulator:
    """A deterministic, high-throughput discrete-event simulator.

    Parameters
    ----------
    seed:
        Seeds the simulator-wide random source.  Two simulators with the
        same seed and the same schedule of actions produce identical runs.
    """

    kernel = "fast"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._queue: list[list] = []
        self._seq = 0  # records pushed
        self._fired = 0
        self._cancelled = 0
        # the attached repro.sim.profile.SimProfiler, if any
        self.profiler = None
        # The attached telemetry hub (repro.obs), read by message-level
        # instrumentation sites; the event loop itself never consults it.
        self.telemetry = None
        # called with each delivered message (Network._deliver)
        self.observers: list[Callable] = []

    @property
    def pending(self) -> int:
        """Number of live scheduled events (cancelled ones excluded)."""
        return self._seq - self._fired - self._cancelled

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, fn: Callable, args: tuple) -> list:
        seq = self._seq
        self._seq = seq + 1
        rec = [time, seq, fn, args]
        queue = self._queue
        heappush(queue, rec)
        profiler = self.profiler
        if profiler is not None and len(queue) > profiler.heap_watermark:
            profiler.heap_watermark = len(queue)
        return rec

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` to fire ``delay`` time units from now.

        Returns a cancellable handle; prefer :meth:`post` on paths that
        never cancel (it skips the handle allocation).
        """
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return EventHandle(self, self._push(self.now + delay, action, ()))

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, action)

    def post(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget: schedule ``fn(*args)`` with no handle.

        This is the hot path: the callable and its arguments go straight
        into a fresh record and the record into the heap — no closure, no
        handle, and no call between here and ``heappush``.
        """
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        heappush(queue, [self.now + delay, seq, fn, args])
        profiler = self.profiler
        if profiler is not None and len(queue) > profiler.heap_watermark:
            profiler.heap_watermark = len(queue)

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget scheduling at an absolute virtual time."""
        self.post(time - self.now, fn, *args)

    def waker(self, delay: float, fn: Callable[[], None]) -> Waker:
        """A coalesced wakeup timer firing ``fn`` (see :class:`Waker`)."""
        return Waker(self, delay, fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Drain the event queue; returns the final virtual time.

        ``until`` bounds virtual time (events beyond it stay queued, and a
        bound the clock has already passed fires nothing and leaves
        ``now`` where it is); ``max_events`` bounds the number of events
        fired (a safety valve against runaway feedback loops; zero or
        less fires nothing).

        The loop pops first: each live record is popped once and fired,
        and the one record that ends the run — past ``until``, or beyond
        ``max_events`` — is pushed back (its seq keeps its place).  The
        fired count is stored once per run, on the way out, including when
        a callback raises (the raising event counts as fired); read
        :attr:`fired` and :attr:`pending` between runs, not from inside a
        callback.
        """
        queue = self._queue
        # both bounds resolved once per run
        limit = sys.maxsize if max_events is None else max_events
        bound = math.inf if until is None else until
        fired = 0
        try:
            while queue:
                rec = heappop(queue)
                fn = rec[_FN]
                if fn is None:  # cancelled: discarded on the way past
                    continue
                if fired >= limit:
                    heappush(queue, rec)
                    break
                time = rec[_TIME]
                if time > bound:
                    heappush(queue, rec)
                    # a bound the clock has already passed leaves it alone
                    if bound > self.now:
                        self.now = bound
                    break
                self.now = time
                rec[_FN] = None  # fired: a late EventHandle.cancel no-ops
                fired += 1
                if self.profiler is not None:
                    self.profiler._note_fire(fn, len(queue))
                fn(*rec[_ARGS])
        finally:
            self._fired += fired
        if until is not None and self.now < until and not queue:
            self.now = until
        return self.now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(now={self.now:.6f}, pending={self.pending})"


# The current run's (telemetry hub, socket NetConfig); (None, None) is an
# uninstrumented simulated run.  Read by make_simulator and coord/sealing.
RUN_SCOPE: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "blazes_run_scope", default=(None, None)
)


@contextlib.contextmanager
def run_scope(telemetry=None, net_config=None):
    """Scope one run: every simulator built inside the block reports to
    ``telemetry`` and, given a :class:`~repro.net.context.NetConfig`,
    runs on the socket transport.  An enclosing scope does not leak in:
    the block sees exactly these two values."""
    token = RUN_SCOPE.set((telemetry, net_config))
    try:
        yield
    finally:
        RUN_SCOPE.reset(token)


def make_simulator(seed: int = 0):
    """Build the simulator a cluster runs on.

    Every cluster substrate (:class:`~repro.bloom.cluster.BloomCluster`,
    :class:`~repro.storm.executor.StormCluster`) builds its simulator
    here, from the scoped run (:func:`run_scope`): the discrete-event
    :class:`Simulator`, or — when the scope carries a ``NetConfig`` — its
    wall-clock subclass :class:`~repro.net.services.NetSimulator` (the
    same heap, fired when the wall deadline passes), so the whole run
    lands on real TCP transport behind the same channel contract.  The
    scope's telemetry hub is attached with its instruments: a span
    tracker captures each delivery as a delivery observer, and a profiler
    attaches for the kernel's whole life.  With no hub the attribute
    stays ``None``, every instrumentation site is a single pointer check
    and the delivery-observer list stays empty.
    """
    hub, net_config = RUN_SCOPE.get()
    if net_config is not None:
        from repro.net.services import NetSimulator

        sim = NetSimulator(seed=seed, config=net_config)
    else:
        sim = Simulator(seed=seed)
    if hub is not None:
        sim.telemetry = hub
        spans = hub.spans
        if spans is not None:
            sim.observers.append(lambda msg: spans.note_delivery(msg, sim.now))
        profiler = hub.profiler
        if profiler is not None:
            sim.profiler = profiler
            sim.observers.append(profiler._count_message)
    return sim
