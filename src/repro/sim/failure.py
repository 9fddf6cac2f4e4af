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

from repro.sim.faultpolicy import WindowSet, reorder_combine
from repro.sim.network import LatencyModel, Network, Process

__all__ = ["FailureInjector"]


class FailureInjector:
    """Schedules crashes, loss/dup windows, partitions on a network."""

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
        process = self.network.process(process_name)
        self.network.sim.post_at(at, self._do_crash, process)

    def recover(self, process_name: str, at: float) -> None:
        """Recover ``process_name`` at virtual time ``at``."""
        process = self.network.process(process_name)
        self.network.sim.post_at(at, self._do_recover, process)

    def crash_for(self, process_name: str, at: float, duration: float) -> None:
        """Crash then recover after ``duration``."""
        self.crash(process_name, at)
        self.recover(process_name, at + duration)

    def loss_window(self, at: float, duration: float, drop_prob: float) -> None:
        """Raise the network drop probability to ``drop_prob`` temporarily.

        Overlapping windows compose: the strongest open window governs,
        and the pre-window probability returns when the last one closes.
        """
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
