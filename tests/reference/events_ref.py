"""The seed discrete-event kernel, retained as the executable reference.

This is the original handle-per-event scheduler the repo grew up on: every
scheduled action allocates an :class:`EventHandle`, the heap orders handles
by ``(time, seq)`` through Python-level ``__lt__`` calls, and callers pass
zero-argument closures.  It is deliberately simple and deliberately slow.

The production kernel lives in :mod:`repro.sim.events`; this one is
test-only.  :func:`tests.reference.reference_kernel` swaps it in for
``repro.sim.events.Simulator``, so every simulator built through
:func:`repro.sim.events.make_simulator` lands here instead.  The
differential suite (``tests/sim/test_kernel_equivalence.py``) runs every
registered app under both kernels and requires byte-identical traces, so
any observable divergence in the fast kernel fails loudly against this
file.  Keep the scheduling semantics here frozen: events fire in
``(time, seq)`` order, cancelled events are skipped without counting as
fired, ``until`` bounds virtual time, ``max_events`` bounds firings.

The only additions over the seed are the compatibility shims at the bottom
of :class:`Simulator` (``post``/``post_at``/``waker``, the ``profiler``
hook and the ``observers`` list), so the upper layers can drive either kernel through one interface, and two
seed bugs fixed: :attr:`Simulator.pending` no longer counts cancelled
events (which misled quiescence checks), and a ``run`` whose ``until``
the clock has already passed no longer moves ``now`` back to it.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from heapq import heappop, heappush

from repro.errors import SimulationError

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """A cancellable reference to one scheduled event."""

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """The reference deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seeds the simulator-wide random source.  Two simulators with the
        same seed and the same schedule of actions produce identical runs.
    """

    kernel = "ref"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._queue: list[EventHandle] = []
        self._seq = 0
        self._fired = 0
        self.profiler = None
        # The attached telemetry hub (repro.obs); same contract as the
        # fast kernel: message-level sites read it, the loop never does.
        self.telemetry = None
        self.observers: list[Callable] = []  # the delivery observers, as there

    @property
    def pending(self) -> int:
        """Number of live scheduled events (cancelled ones excluded).

        The seed counted cancelled-but-unpopped handles here, so a
        quiescence check (``pending == 0``) could report a busy simulator
        that would in fact never fire again.  The reference kernel pays an
        O(queue) scan for the correct answer; the fast kernel keeps a
        live counter.
        """
        return sum(1 for handle in self._queue if not handle.cancelled)

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    def schedule(
        self, delay: float, action: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self.now + delay, self._seq, action)
        self._seq += 1
        heappush(self._queue, handle)
        return handle

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, action)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        while self._queue:
            handle = heappop(self._queue)
            if handle.cancelled:
                continue
            if handle.time < self.now:
                raise SimulationError("event queue went back in time")
            self.now = handle.time
            self._fired += 1
            if self.profiler is not None:
                self.profiler._note_fire(handle.action, len(self._queue))
            handle.action()
            return True
        return False

    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Drain the event queue; returns the final virtual time.

        ``until`` bounds virtual time (events beyond it stay queued);
        ``max_events`` bounds the number of events fired (a safety valve
        against runaway feedback loops).
        """
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            head = self._queue[0]
            if head.cancelled:
                heappop(self._queue)
                continue
            if until is not None and head.time > until:
                # a bound the clock has already passed leaves it alone
                self.now = max(self.now, until)
                break
            if not self.step():
                break
            fired += 1
        if until is not None and self.now < until and not self._queue:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # compatibility with the fast kernel's interface
    #
    # The upper layers (network, clusters, fault injection) talk to one
    # kernel interface; these shims express it in seed terms.  Each call
    # consumes exactly one sequence number, like its fast counterpart, so
    # both kernels fire the same events in the same order.
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget scheduling (no handle).

        The fast kernel stores ``(fn, args)`` in a list record; here it
        degrades to a closure per event, which is exactly the allocation
        cost the rewrite removes.  The closure inherits ``fn``'s qualified
        name so per-kind profiler histograms match across kernels.
        """
        if args:
            def call() -> None:
                fn(*args)

            call.__qualname__ = getattr(fn, "__qualname__", repr(fn))
            self.schedule(delay, call)
        else:
            self.schedule(delay, fn)

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget scheduling at an absolute virtual time."""
        self.post(time - self.now, fn, *args)

    def waker(self, delay: float, fn: Callable[[], None]):
        """A coalesced wakeup for ``fn`` (see :class:`repro.sim.events.Waker`)."""
        from repro.sim.events import Waker

        return Waker(self, delay, fn)

    def __repr__(self) -> str:
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"
