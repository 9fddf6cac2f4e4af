"""A simulated message-passing network with nondeterministic delivery.

The network models the paper's system assumptions (Section II): channels
are asynchronous and unordered, and at-least-once delivery is available as
an option (duplication), as is loss (for exercising replay-based fault
tolerance).  Per-message latency is ``base + Exp(jitter)``, so two messages
sent back-to-back may arrive in either order — exactly the nondeterminism
Blazes reasons about.  Everything is driven by the simulator's seeded RNG,
so one seed yields one delivery order and different seeds explore different
interleavings.

What a fault *means* is decided only in :mod:`repro.sim.faultpolicy`.  The
hop here may skip a policy call behind a guard, but only when the call's
result **and** its RNG draw count are already determined: ``send`` asks
``send_copies`` only while a loss or duplication probability is positive
(otherwise: one copy, no draw), and ``_deliver`` asks ``delivery_action``
only while some link is blocked or the destination is unknown or crashed
(otherwise: deliver).  A delivery then reports to the profiler, the
telemetry hub and the observers only once ``Simulator.watched`` says one
of them ever attached.  ``tests/reference/network_ref.py`` keeps the
unguarded hop, and the differential suite holds the two to identical
deliveries, counters and RNG state.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable
from math import log
from typing import Any, NamedTuple

from repro.errors import SimulationError
from repro.sim import faultpolicy
from repro.sim.events import Simulator

__all__ = ["Message", "LatencyModel", "Process", "Network", "make_network"]


class Message(NamedTuple):
    """One message in flight: opaque payload plus addressing metadata.

    Immutable and tuple-backed: one is built per hop, so it carries no
    ``__dict__`` and costs one allocation.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float
    uid: int


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """Latency distribution for one network: ``base + Exp(mean jitter)``.

    Both parameters must be ``>= 0`` (``jitter == 0`` means no jitter and
    no RNG draw): a negative ``base`` would surface later, seed-dependent,
    as ``cannot schedule into the past`` from inside the event loop, and
    :meth:`Network.send` draws the latency inline on that invariant.
    """

    base: float = 0.001
    jitter: float = 0.002

    def __post_init__(self) -> None:
        for name in ("base", "jitter"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise SimulationError(f"latency {name} must be >= 0, got {value}")

    def sample(self, rng) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.expovariate(1.0 / self.jitter)


class Process:
    """A simulated node: subclass and override :meth:`recv`.

    Processes are registered with a :class:`Network`, which routes messages
    by name and sets ``network`` and ``sim`` (``None`` until then).
    ``self.send`` is the only way out; the simulator clock is reachable as
    ``self.now``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: "Network | None" = None
        self.sim: Simulator | None = None
        self.crashed = False

    @property
    def now(self) -> float:
        return self.sim.now

    def send(self, dst: str, kind: str, payload: Any) -> None:
        """Send a message over the network (asynchronous, unordered)."""
        assert self.network is not None, f"{self.name} is not registered"
        self.network.send(self.name, dst, kind, payload)

    def after(self, delay: float, action: Callable[[], None]):
        """Schedule a local timer."""
        return self.sim.schedule(delay, action)

    def recv(self, msg: Message) -> None:  # pragma: no cover - interface
        """Handle one delivered message."""
        raise NotImplementedError

    def on_start(self) -> None:
        """Hook called when the network starts; default does nothing."""

    def close(self) -> None:
        """Drop all the state this process holds (see :meth:`Network.close`).

        The process is left as it was built, unregistered: its runtime,
        timers, adapters and channel tables are gone, and with them every
        reference back to it.
        """
        name = self.name
        vars(self).clear()
        Process.__init__(self, name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Network:
    """Routes messages between registered processes with simulated latency.

    ``drop_prob`` and ``dup_prob`` inject loss and duplication;
    ``on_deliver`` observers (used by traces and tests) see every delivered
    message.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: LatencyModel | None = None,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        reliable_kinds: Iterable[str] = (),
        retry_crashed: bool = False,
        retry_limit: int = 1000,
    ) -> None:
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.reliable_kinds = frozenset(reliable_kinds)
        # With retry_crashed, reliable kinds are also retransmitted while
        # their destination is crashed: the session layer they stand for
        # (e.g. a Zookeeper client session) is re-established when the
        # peer restarts and resumes delivery.
        self.retry_crashed = retry_crashed
        # Session timeout: a reliable message retries at most this many
        # times (across partitions and crashed peers) before the session
        # gives up and the message counts as dropped.  Far above any
        # healing window in practice, it exists so a *permanent* crash or
        # partition ends in visible loss instead of a simulator that
        # never quiesces.
        self.retry_limit = retry_limit
        self._processes: dict[str, Process] = {}
        self._unstarted: list[Process] = []  # registered, on_start not yet run
        # reference-counted so overlapping partitions on one link don't
        # heal early when the first window closes
        self._blocked_links: dict[tuple[str, str], int] = {}
        self._uid = 0
        self._observers: list[Callable[[Message], None]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.retried = 0

    def register(self, process: Process) -> Process:
        """Attach a process to this network; names must be unique."""
        if process.name in self._processes:
            raise SimulationError(f"duplicate process name {process.name!r}")
        process.network = self
        process.sim = self.sim
        self._processes[process.name] = process
        self._unstarted.append(process)
        return process

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError:
            raise SimulationError(f"unknown process {name!r}") from None

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes.values())

    def close(self) -> None:
        """End the run, so that it is freed by reference counting.

        A finished run is one cyclic object graph — the network and its
        processes point at each other, and so do a node and its waker,
        runtime and adapters, a task and its router, and the kernel's
        pending records and the processes they would call — which only
        the cyclic collector could find, re-traversing all of it on every
        pass until then.  Every registered process drops its state
        (:meth:`Process.close`), and the network drops its processes, its
        observers and the kernel's pending records.  Read what the run is
        wanted for first: nothing of it survives this call.
        """
        for process in self._processes.values():
            process.close()
        self._processes.clear()
        self._unstarted.clear()
        self._observers.clear()
        self.sim._queue.clear()

    def observe(self, callback: Callable[[Message], None]) -> None:
        """Register a delivery observer (tracing, assertions)."""
        self._observers.append(callback)
        self.sim.watched = True

    # ------------------------------------------------------------------
    # link partitions
    # ------------------------------------------------------------------
    def block_link(self, src: str, dst: str) -> None:
        """Sever the directed link ``src -> dst`` (a network partition)."""
        key = (src, dst)
        self._blocked_links[key] = self._blocked_links.get(key, 0) + 1

    def unblock_link(self, src: str, dst: str) -> None:
        """Heal one severing of ``src -> dst`` (no-op when not blocked)."""
        key = (src, dst)
        count = self._blocked_links.get(key, 0)
        if count <= 1:
            self._blocked_links.pop(key, None)
        else:
            self._blocked_links[key] = count - 1

    def link_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked_links

    def start(self) -> None:
        """Invoke the ``on_start`` hook of every process not yet started.

        Each process starts once, however many times a cluster's ``run``
        is called: a run resumed after a bounded one (``run(until=t);
        run()``) must not emit a source's workload twice.
        """
        starting, self._unstarted = self._unstarted, []
        for process in starting:
            process.on_start()

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        """Route one message; may drop, duplicate, and reorder.

        Kinds listed in ``reliable_kinds`` are exempt from loss and
        duplication — they stand for TCP-backed control-plane channels
        (e.g. Zookeeper sessions), which retry transparently.
        """
        if dst not in self._processes:
            raise SimulationError(f"message to unknown process {dst!r}")
        self.sent += 1
        sim = self.sim
        telemetry = sim.telemetry
        if telemetry is not None:
            telemetry.note_send(kind, payload)
        rng = sim.rng
        # guard: with neither probability positive the policy answers 1
        # and draws nothing, whatever the kind
        if self.drop_prob > 0 or self.dup_prob > 0:
            copies = faultpolicy.send_copies(
                rng,
                reliable=kind in self.reliable_kinds,
                drop_prob=self.drop_prob,
                dup_prob=self.dup_prob,
            )
            if copies == 0:
                self.dropped += 1
            elif copies == 2:
                self.duplicated += 1
            for _ in range(copies):
                self._uid += 1
                msg = Message(src, dst, kind, payload, sim.now, self._uid)
                sim.post(self.latency.sample(rng), self._deliver, msg)
            return
        # the usual case, one copy: LatencyModel.sample inlined with
        # rng.expovariate's own arithmetic, so the draws and the delays are
        # the same floats, and tuple.__new__ is the NamedTuple constructor
        # minus its keyword handling
        self._uid = uid = self._uid + 1
        msg = tuple.__new__(Message, (src, dst, kind, payload, sim.now, uid))
        latency = self.latency
        base, jitter = latency.base, latency.jitter
        delay = base + -log(1.0 - rng.random()) / (1.0 / jitter) if jitter > 0 else base
        sim.post(delay, self._deliver, msg)

    def _deliver(self, msg: Message, attempt: int = 0) -> None:
        # Partition and crash semantics are the shared backend policy
        # (repro.sim.faultpolicy): a blocked link delays reliable kinds
        # (the session retransmits until it heals) and drops the rest; a
        # crashed destination drops deliveries unless retry_crashed
        # re-establishes the reliable session on restart.
        process = self._processes.get(msg.dst)
        # guard: no link blocked anywhere and a known, live destination
        # leave the policy one answer, DELIVER (it draws nothing either way)
        if self._blocked_links or process is None or process.crashed:
            action = faultpolicy.delivery_action(
                reliable=msg.kind in self.reliable_kinds,
                link_blocked=(msg.src, msg.dst) in self._blocked_links,
                dst_known=process is not None,
                dst_crashed=process is not None and process.crashed,
                retry_crashed=self.retry_crashed,
            )
            if action is faultpolicy.RETRY:
                self._retry(msg, attempt)
                return
            if action is faultpolicy.DROP:
                self.dropped += 1
                return
        self.delivered += 1
        sim = self.sim
        if sim.watched:  # a profiler, a telemetry hub or an observer
            profiler = sim._profiler
            if profiler is not None:
                profiler._note_message(msg.kind)
            telemetry = sim.telemetry
            if telemetry is not None:
                telemetry.note_delivery(msg, sim.now)
            for observer in self._observers:
                observer(msg)
        process.recv(msg)

    def _retry(self, msg: Message, attempt: int) -> None:
        if faultpolicy.retry_action(attempt, self.retry_limit) is faultpolicy.DROP:
            # session timeout: the peer never came back within the
            # transport's patience — the loss becomes observable
            self.dropped += 1
            return
        self.retried += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_decision("retry", topic=msg.kind)
        delay = self.latency.base + self.latency.sample(self.sim.rng)
        self.sim.post(delay, self._deliver, msg, attempt + 1)


def make_network(sim, **kwargs) -> Network:
    """Build the network matching ``sim``'s backend.

    The single construction funnel every cluster substrate uses
    (:class:`~repro.bloom.cluster.BloomCluster`,
    :class:`~repro.storm.executor.StormCluster`): a discrete-event
    simulator gets the simulated :class:`Network`, while a simulator
    exposing ``make_network`` — the real-transport
    :class:`~repro.net.services.NetSimulator` — builds its own
    socket-backed network behind the same channel contract.  Apps never
    see the difference.
    """
    factory = getattr(sim, "make_network", None)
    if factory is not None:
        return factory(**kwargs)
    return Network(sim, **kwargs)
