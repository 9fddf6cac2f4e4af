"""Fault injection for simulated runs.

Four fault classes matter for the paper's anomaly taxonomy:

* **crash / recover** — a crashed process silently drops deliveries, which
  exercises replay-based fault tolerance (Storm) and replication (Bloom);
* **message-loss windows** — transient elevated loss, which exercises
  at-least-once redelivery;
* **duplication windows** — transient at-least-once duplication, which
  exercises idempotence (set semantics, sequence-number dedup);
* **link partitions and reorder bursts** — severed process pairs and
  inflated latency jitter, which exercise the delivery-order nondeterminism
  the Blazes labels predict (``repro.chaos`` compiles its fault-schedule
  DSL onto these primitives).

Window composition and retry rules come from the shared backend policy
(:mod:`repro.sim.faultpolicy`), which the real-transport network
(:mod:`repro.net.services`) imports too — the injector works against
any network exposing the channel contract, simulated or socket-backed.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.sim.faultpolicy import WindowSet, reorder_combine
from repro.sim.network import LatencyModel, Network, Process

__all__ = ["FailureInjector", "check_fault"]


def check_fault(
    at: float,
    duration: float = 0.0,
    *,
    prob: tuple[str, float] | None = None,
    factor: float | None = None,
) -> None:
    """Reject a fault's inputs before anything of it is scheduled.

    ``at`` and ``duration`` must be finite and ``>= 0``, a probability
    (``(name, value)``) within ``[0, 1]``, and a jitter ``factor`` finite
    and ``>= 0``; NaN fails every test.  Checked here, a bad input raises
    :class:`~repro.errors.SimulationError` where the fault is armed (or,
    through :mod:`repro.chaos.schedule`, where it is declared), not from
    inside the event loop when its window opens or closes.
    """
    for name, value in (("start", at), ("duration", duration)):
        if not 0.0 <= value < math.inf:  # NaN fails too
            raise SimulationError(f"fault {name} must be finite and >= 0, got {value}")
    if prob is not None:
        name, value = prob
        if not 0.0 <= value <= 1.0:
            raise SimulationError(f"fault {name} must be within [0, 1], got {value}")
    if factor is not None and not 0.0 <= factor < math.inf:
        raise SimulationError(f"reorder factor must be finite and >= 0, got {factor}")


class FailureInjector:
    """Schedules crashes, loss/dup windows, partitions on a network.

    Every entry point checks its inputs (:func:`check_fault`) and its
    process names before it schedules anything, so a call that raises
    leaves no fault armed.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.crashes: list[tuple[float, str]] = []
        self.recoveries: list[tuple[float, str]] = []
        self.partitions: list[tuple[float, str, str]] = []
        self.heals: list[tuple[float, str, str]] = []
        # Open fault windows, tracked so overlapping windows compose: each
        # window adds its value on begin and removes it on end, and the
        # network parameter is recomputed from the remaining set.  (The
        # old capture-and-restore scheme re-imposed a closed window's
        # inflation forever when windows overlapped.)
        self._loss_windows = WindowSet()
        self._dup_windows = WindowSet()
        self._reorder_windows = WindowSet(
            lambda base, factors: reorder_combine(base, factors, LatencyModel)
        )

    def crash(self, process_name: str, at: float) -> None:
        """Crash ``process_name`` at virtual time ``at``."""
        check_fault(at)
        process = self.network.process(process_name)
        self.network.sim.post_at(at, self._do_crash, process)

    def recover(self, process_name: str, at: float) -> None:
        """Recover ``process_name`` at virtual time ``at``."""
        check_fault(at)
        process = self.network.process(process_name)
        self.network.sim.post_at(at, self._do_recover, process)

    def crash_for(self, process_name: str, at: float, duration: float) -> None:
        """Crash then recover after ``duration``."""
        check_fault(at, duration)  # before crash() arms anything
        self.crash(process_name, at)
        self.recover(process_name, at + duration)

    def loss_window(self, at: float, duration: float, drop_prob: float) -> None:
        """Raise the network drop probability to ``drop_prob`` temporarily.

        Overlapping windows compose: the strongest open window governs,
        and the pre-window probability returns when the last one closes.
        """
        check_fault(at, duration, prob=("drop_prob", drop_prob))
        network = self.network
        windows = self._loss_windows

        def begin() -> None:
            network.drop_prob = windows.begin(drop_prob, network.drop_prob)
            network.sim.schedule(duration, end)

        def end() -> None:
            network.drop_prob = windows.end(drop_prob)

        network.sim.schedule_at(at, begin)

    def duplicate_window(self, at: float, duration: float, dup_prob: float) -> None:
        """Raise the network duplication probability temporarily.

        Overlap composes like :meth:`loss_window`.
        """
        check_fault(at, duration, prob=("dup_prob", dup_prob))
        network = self.network
        windows = self._dup_windows

        def begin() -> None:
            network.dup_prob = windows.begin(dup_prob, network.dup_prob)
            network.sim.schedule(duration, end)

        def end() -> None:
            network.dup_prob = windows.end(dup_prob)

        network.sim.schedule_at(at, begin)

    def partition(
        self,
        src: str,
        dst: str,
        at: float,
        duration: float,
        *,
        symmetric: bool = True,
    ) -> None:
        """Sever the ``src``/``dst`` link at ``at``; heal after ``duration``.

        Messages crossing a severed link while it is down are dropped
        (reliable kinds are retried until the link heals, modeling TCP).
        ``symmetric=False`` severs only the ``src -> dst`` direction.
        """
        check_fault(at, duration)
        network = self.network
        # raise early on unknown names, like crash()/recover() do
        network.process(src)
        network.process(dst)
        links = [(src, dst)] + ([(dst, src)] if symmetric else [])

        def begin() -> None:
            for a, b in links:
                network.block_link(a, b)
                self.partitions.append((network.sim.now, a, b))
            network.sim.schedule(duration, heal)

        def heal() -> None:
            for a, b in links:
                network.unblock_link(a, b)
                self.heals.append((network.sim.now, a, b))

        network.sim.schedule_at(at, begin)

    def reorder_window(self, at: float, duration: float, factor: float) -> None:
        """Inflate latency jitter by ``factor`` temporarily (reorder burst).

        Higher jitter widens the delivery-time spread of back-to-back
        messages, so more pairs arrive out of order — nondeterminism
        without loss, the fault class the Blazes labels are really about.
        Overlapping windows inflate the *pre-window* jitter by the largest
        open factor (they do not multiply), and the baseline latency model
        returns exactly when the last window closes — this also covers
        retransmitting sessions (reliable kinds crossing a partition),
        whose retry delays are sampled from the live latency model.
        """
        check_fault(at, duration, factor=factor)
        network = self.network
        windows = self._reorder_windows

        def begin() -> None:
            network.latency = windows.begin(factor, network.latency)
            network.sim.schedule(duration, end)

        def end() -> None:
            network.latency = windows.end(factor)

        network.sim.schedule_at(at, begin)

    def _do_crash(self, process: Process) -> None:
        process.crashed = True
        self.crashes.append((self.network.sim.now, process.name))

    def _do_recover(self, process: Process) -> None:
        process.crashed = False
        self.recoveries.append((self.network.sim.now, process.name))
