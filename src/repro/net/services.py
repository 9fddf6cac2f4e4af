"""Nodes as asyncio services + the Simulator-compatible socket runtime.

Three layers make a socket run look exactly like a simulated one to the
apps:

* :class:`NetSimulator` — implements the :class:`repro.sim.events.Simulator`
  interface (``now``/``rng``/``schedule``/``post``/``waker``/``run``) on
  the wall clock: a virtual timer becomes an asyncio ``call_at`` at
  ``epoch + when * time_scale``, and ``now`` is read back off the running
  loop.  Determinism of *decisions* survives (every random draw still
  flows through the seeded ``rng``); determinism of *interleavings* does
  not — which is the point of running on a real transport.
* :class:`SocketNetwork` — the :class:`repro.sim.network.Network`
  contract over TCP.  ``send`` encodes a frame and hands it to the
  transport; the receiving endpoint feeds it to the destination node's
  mailbox; the mailbox loop schedules delivery at the frame's sampled
  latency on the *virtual* clock.  Delivery-time policy (partitions,
  crashes, retries) is the inherited ``Network._deliver`` — the very
  code the simulator runs, consulting the same
  :mod:`repro.sim.faultpolicy` decisions.
* :class:`ServiceCluster` — lifecycle: brings the topology up (one
  :class:`~repro.net.transport.Endpoint` per node, one
  :class:`NodeService` mailbox task per node, the chaos watcher), runs
  the workload to **wall-clock quiescence** — the socket backend's
  replacement for the simulator's empty-heap condition: no armed virtual
  timers, no frames in flight, no queued mailbox work, sustained for
  ``quiet_checks`` consecutive polls — then tears everything down.

A wall-clock budget (``NetConfig.timeout``) bounds the whole run: on
expiry the cluster tears down cleanly and :class:`SocketTimeout` is
raised, carrying enough state for a partial run directory.
"""

from __future__ import annotations

import asyncio
import collections
import random
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError
from repro.net import frames
from repro.net.chaosproxy import ChaosProxy
from repro.net.context import NetConfig
from repro.net.transport import TcpTransport
from repro.sim.events import Waker
from repro.sim.network import Message, Network

__all__ = [
    "NetSimulator",
    "NodeService",
    "ServiceCluster",
    "SocketNetwork",
    "SocketTimeout",
]


class SocketTimeout(SimulationError):
    """A socket run exceeded its wall-clock budget and was torn down."""

    def __init__(
        self, *, timeout: float, virtual_time: float, fired: int, pending: int
    ) -> None:
        super().__init__(
            f"socket run exceeded its {timeout}s wall-clock budget "
            f"(virtual time {virtual_time:.4f}, {fired} events fired, "
            f"{pending} timers pending)"
        )
        self.timeout = timeout
        self.virtual_time = virtual_time
        self.fired = fired
        self.pending = pending
        self.outcome = None  # the partial RunOutcome; BlazesApp.run attaches it


class _NetTimer:
    """One virtual timer: the socket backend's event record.

    Compatible with the handle surface of
    :class:`repro.sim.events.EventHandle` (``time``/``cancel``), so
    chaos-injector code holding handles works unchanged.
    """

    __slots__ = ("sim", "time", "fn", "args", "handle", "armed", "done", "cancelled")

    def __init__(self, sim: "NetSimulator", time: float, fn, args) -> None:
        self.sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.handle = None
        self.armed = False
        self.done = False
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the timer from firing (no-op if it already fired)."""
        if self.done or self.cancelled:
            return
        self.cancelled = True
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None
        self.sim._drop(self)

    def __repr__(self) -> str:
        state = (
            "cancelled" if self.cancelled else "fired" if self.done else "pending"
        )
        return f"_NetTimer(t={self.time:.6f}, {state})"


class NetSimulator:
    """The Simulator interface on the wall clock.

    Virtual time maps onto wall time as ``wall = epoch + virtual *
    time_scale``; ``now`` inverts that against the running loop, and is
    frozen at 0.0 before :meth:`run` and at the final time after.  Timers
    scheduled before the run (workloads, chaos schedules) are buffered
    and armed when the loop starts — the same "schedule then run" shape
    the discrete-event kernel has.

    One instance supports one :meth:`run`: a socket topology's dedup and
    session state cannot be resumed meaningfully, and no cluster
    substrate runs twice.
    """

    kernel = "socket"

    def __init__(self, seed: int = 0, config: NetConfig | None = None) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.config = config or NetConfig()
        self.telemetry = None
        self.network: SocketNetwork | None = None
        self._profiler = None
        self._timers: set[_NetTimer] = set()
        self._live = 0
        self._armed = 0
        self._fired = 0
        self._now = 0.0
        self._running = False
        self._ran = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._error: BaseException | None = None

    # ------------------------------------------------------------------
    # Simulator interface: clock and counters
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if not self._running:
            return self._now
        return (self._loop.time() - self._epoch) / self.config.time_scale

    @property
    def pending(self) -> int:
        """Number of live timers (cancelled ones excluded)."""
        return self._live

    @property
    def fired(self) -> int:
        """Number of timers executed so far."""
        return self._fired

    @property
    def profiler(self):
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value

    # ------------------------------------------------------------------
    # Simulator interface: scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, fn: Callable, args: tuple) -> _NetTimer:
        timer = _NetTimer(self, time, fn, args)
        self._timers.add(timer)
        self._live += 1
        if self._running:
            self._arm(timer)
        return timer

    def _arm(self, timer: _NetTimer) -> None:
        wall = self._epoch + timer.time * self.config.time_scale
        timer.armed = True
        self._armed += 1
        timer.handle = self._loop.call_at(wall, self._fire, timer)

    def _drop(self, timer: _NetTimer) -> None:
        self._timers.discard(timer)
        self._live -= 1
        if timer.armed:
            timer.armed = False
            self._armed -= 1

    def _fire(self, timer: _NetTimer) -> None:
        if timer.cancelled or timer.done or not self._running:
            return
        timer.done = True
        self._timers.discard(timer)
        self._live -= 1
        self._armed -= 1
        self._fired += 1
        if self._profiler is not None:
            self._profiler._note_fire(timer.fn, self._armed)
        try:
            timer.fn(*timer.args)
        except BaseException as exc:  # noqa: BLE001 - surfaces after teardown
            self._record_error(exc)

    def _record_error(self, exc: BaseException) -> None:
        """Capture the first callback failure; the run loop aborts on it."""
        if self._error is None:
            self._error = exc

    def schedule(self, delay: float, action: Callable[[], None]) -> _NetTimer:
        """Schedule ``action`` to fire ``delay`` virtual units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._push(self.now + delay, action, ())

    def schedule_at(self, time: float, action: Callable[[], None]) -> _NetTimer:
        """Schedule ``action`` at absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self.now), action)

    def post(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget: schedule ``fn(*args)`` with no handle kept."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._push(self.now + delay, fn, args)

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget scheduling at an absolute virtual time."""
        self.post(max(0.0, time - self.now), fn, *args)

    def waker(self, delay: float, fn: Callable[[], None]) -> Waker:
        """A coalesced wakeup timer (the kernel-shared :class:`Waker`)."""
        return Waker(self, delay, fn)

    # ------------------------------------------------------------------
    # network construction (the make_network funnel)
    # ------------------------------------------------------------------
    def make_network(self, **kwargs) -> "SocketNetwork":
        """Build this simulator's socket-backed network (see
        :func:`repro.sim.network.make_network`)."""
        self.network = SocketNetwork(self, **kwargs)
        return self.network

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Bring the services up, run to quiescence, tear down.

        Mirrors the discrete-event ``run``: ``until`` bounds virtual
        time, ``max_events`` bounds fired timers, and the return value is
        the final virtual time.  Additionally ``NetConfig.timeout``
        bounds *wall* time; expiry raises :class:`SocketTimeout` after a
        clean teardown.
        """
        if self._ran:
            raise SimulationError(
                "a socket-backed cluster runs once; build a new cluster"
            )
        self._ran = True
        status = asyncio.run(self._main(until, max_events))
        if self._error is not None:
            raise self._error
        if status == "timeout":
            raise SocketTimeout(
                timeout=self.config.timeout,
                virtual_time=self._now,
                fired=self._fired,
                pending=self._live,
            )
        return self._now

    async def _main(self, until: float | None, max_events: int | None) -> str:
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._running = True
        network = self.network
        cluster = ServiceCluster(self, network) if network is not None else None
        status = "error"
        try:
            if cluster is not None:
                await cluster.start()
            # pre-run state goes live in its scheduling order: buffered
            # sends first, then on_start hooks (which send live), then
            # the buffered timers (workloads, chaos schedules)
            if network is not None:
                network._flush_outbox()
                network._run_start_hooks()
            for timer in list(self._timers):
                if not timer.armed:
                    self._arm(timer)
            status = await self._wait(until, max_events, cluster)
        finally:
            self._finish(status, until)
            if cluster is not None:
                await cluster.stop()
        return status

    async def _wait(
        self,
        until: float | None,
        max_events: int | None,
        cluster: "ServiceCluster | None",
    ) -> str:
        config = self.config
        deadline = (
            None if until is None else self._epoch + until * config.time_scale
        )
        budget = (
            None if config.timeout is None else self._loop.time() + config.timeout
        )
        quiet = 0
        while True:
            if self._error is not None:
                return "error"
            wall = self._loop.time()
            if budget is not None and wall >= budget:
                return "timeout"
            if max_events is not None and self._fired >= max_events:
                return "max_events"
            if deadline is not None and wall >= deadline:
                return "until"
            if self._armed == 0 and (cluster is None or not cluster.busy()):
                # quiescent means *sustained* quiet: no armed timers and
                # nothing in flight, over quiet_checks consecutive polls
                # (one quiet instant can be a frame between two hops)
                quiet += 1
                if quiet >= config.quiet_checks:
                    return "quiescent"
            else:
                quiet = 0
            await asyncio.sleep(config.poll_interval)

    def _finish(self, status: str, until: float | None) -> None:
        current = (self._loop.time() - self._epoch) / self.config.time_scale
        if until is not None:
            current = min(current, until)
        # a quiescent bounded run ends *at* the bound, as the DES does
        if until is not None and status in ("quiescent", "until"):
            self._now = until
        else:
            self._now = current
        self._running = False
        # orphan the loop-bound handles; the timers stay pending
        for timer in self._timers:
            if timer.armed:
                timer.armed = False
                timer.handle = None
        self._armed = 0

    def __repr__(self) -> str:
        return f"NetSimulator(now={self.now:.6f}, pending={self.pending})"


class SocketNetwork(Network):
    """The Network contract carried by the TCP transport.

    Send side: the loss/duplication decision and the latency sample are
    drawn from the seeded RNG exactly as the simulated network draws
    them, then the message travels as a real frame; the sampled latency
    rides along and delivery is scheduled at ``sent + latency`` on the
    virtual clock (a frame arriving early waits; one arriving late —
    loopback is fast, so this is rare — delivers immediately).

    Delivery side: the endpoint's mailbox hands the frame back here, and
    the *inherited* ``Network._deliver`` runs — same policy module, same
    counters, same telemetry sites as the simulator.  Reliable kinds
    deliver through a per-``(src, dst)`` FIFO chain — each frame's
    delivery timer is armed only after its predecessor delivers — because
    the session layer they model is ordered, which the simulator's
    independent latency draws do not guarantee but a TCP-backed session
    does.  (A blocked link still sends individual messages through the
    shared retry policy, so ordering across a partition matches the
    simulator's retry semantics, not strict FIFO.)
    """

    def __init__(self, sim: NetSimulator, **kwargs) -> None:
        super().__init__(sim, **kwargs)
        self.proxy = ChaosProxy(self)
        self.transport: TcpTransport | None = None
        self.services: dict[str, NodeService] = {}
        self._outbox: list[dict] = []
        self._seqs: dict[tuple[str, str], int] = {}
        # per-(src, dst) FIFO delivery chains for reliable kinds
        self._chains: dict[tuple[str, str], collections.deque] = {}
        self._chain_live: set[tuple[str, str]] = set()
        self._start_requested = False
        self._started = False

    # ------------------------------------------------------------------
    # channel contract
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Request ``on_start`` hooks; they run once the services are up."""
        self._start_requested = True

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        """Route one message over TCP; may drop, duplicate, and reorder."""
        if dst not in self._processes:
            raise SimulationError(f"message to unknown process {dst!r}")
        self.sent += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_send(kind, payload)
        copies = self.proxy.send_copies(kind)
        if copies == 0:
            self.dropped += 1
        elif copies == 2:
            self.duplicated += 1
        reliable = kind in self.reliable_kinds
        now = self.sim.now
        for _ in range(copies):
            self._uid += 1
            frame = {
                "src": src,
                "dst": dst,
                "kind": kind,
                "payload": frames.encode_value(payload),
                "uid": self._uid,
                "sent": now,
                "at": now + self.latency.sample(self.sim.rng),
            }
            if reliable:
                seq = self._seqs.get((src, dst), 0) + 1
                self._seqs[(src, dst)] = seq
                frame["seq"] = seq
            if self.transport is None:
                self._outbox.append(frame)
            else:
                self.transport.send(frame)

    # ------------------------------------------------------------------
    # receive path (transport -> mailbox -> virtual delivery)
    # ------------------------------------------------------------------
    def ingest(self, frame: dict) -> None:
        """Route one received frame to its node's mailbox (in-loop)."""
        service = self.services.get(frame["dst"])
        if service is not None:
            service.mailbox.put_nowait(frame)
        else:  # pragma: no cover - services cover every process
            self._deliver_frame(frame)

    def _deliver_frame(self, frame: dict) -> None:
        msg = Message(
            frame["src"],
            frame["dst"],
            frame["kind"],
            frames.decode_value(frame["payload"]),
            frame["sent"],
            frame["uid"],
        )
        deliver_at = frame["at"]
        if frame.get("seq") is not None:
            # reliable sessions deliver FIFO: a frame's delivery timer is
            # armed only once its predecessor on this (src, dst) session
            # has delivered, so ordering never depends on timer
            # tie-breaking at equal deadlines
            key = (msg.src, msg.dst)
            self._chains.setdefault(key, collections.deque()).append(
                (deliver_at, msg)
            )
            if key not in self._chain_live:
                self._chain_live.add(key)
                self._advance_chain(key)
            return
        # Network._deliver: the simulator's own delivery-policy code
        self.sim.post(max(0.0, deliver_at - self.sim.now), self._deliver, msg)

    def _advance_chain(self, key: tuple[str, str]) -> None:
        chain = self._chains.get(key)
        if not chain:
            self._chain_live.discard(key)
            return
        deliver_at, msg = chain.popleft()
        self.sim.post(
            max(0.0, deliver_at - self.sim.now), self._deliver_chained, key, msg
        )

    def _deliver_chained(self, key: tuple[str, str], msg: Message) -> None:
        try:
            self._deliver(msg)
        finally:
            self._advance_chain(key)

    # ------------------------------------------------------------------
    # lifecycle (driven by ServiceCluster)
    # ------------------------------------------------------------------
    def _attach(
        self, transport: TcpTransport, services: dict[str, "NodeService"]
    ) -> None:
        self.transport = transport
        self.services = services

    def _flush_outbox(self) -> None:
        outbox, self._outbox = self._outbox, []
        for frame in outbox:
            self.transport.send(frame)

    def _run_start_hooks(self) -> None:
        if not self._start_requested or self._started:
            return
        self._started = True
        for process in self._processes.values():
            process.on_start()

    def busy(self) -> bool:
        """Messages still in flight anywhere outside the virtual timers?"""
        if self._outbox:
            return True
        if any(service.pending for service in self.services.values()):
            return True
        return self.transport is not None and self.transport.busy()

    def transport_summary(self) -> dict:
        return {} if self.transport is None else self.transport.summary()


class NodeService:
    """One node as a long-running service: a mailbox plus its drain task.

    The endpoint's reader enqueues received frames; this task dequeues
    them and schedules their delivery on the virtual clock.  The hop
    keeps per-node receive work ordered and gives the quiescence check a
    visible queue (``pending``) for frames between socket and timer.
    """

    def __init__(self, network: SocketNetwork, name: str) -> None:
        self.network = network
        self.name = name
        self.mailbox: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.create_task(self._run())

    @property
    def pending(self) -> int:
        return self.mailbox.qsize()

    async def _run(self) -> None:
        while True:
            frame = await self.mailbox.get()
            try:
                self.network._deliver_frame(frame)
            except BaseException as exc:  # noqa: BLE001 - aborts the run
                self.network.sim._record_error(exc)
                return

    def stop(self) -> None:
        self._task.cancel()


class ServiceCluster:
    """Topology lifecycle: bring services up, expose busyness, tear down."""

    def __init__(self, sim: NetSimulator, network: SocketNetwork) -> None:
        self.sim = sim
        self.network = network
        self.transport = TcpTransport(network, sim.config)

    async def start(self) -> None:
        network = self.network
        await self.transport.start()
        services = {
            process.name: NodeService(network, process.name)
            for process in network.processes
        }
        network._attach(self.transport, services)
        network.proxy.start(self.transport)

    def busy(self) -> bool:
        return self.network.busy()

    async def stop(self) -> None:
        network = self.network
        network.proxy.stop()
        for service in network.services.values():
            service.stop()
        await self.transport.stop()
