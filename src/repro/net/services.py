"""The Simulator-compatible socket runtime.

Two classes make a socket run look exactly like a simulated one to the
apps:

* :class:`NetSimulator` — the discrete-event kernel
  (:class:`repro.sim.events.Simulator`) with a wall clock in it.  It
  inherits the heap, the event records, ``schedule``/``post``/``waker``
  and the counters, and overrides only what the wall clock changes:
  ``now`` is read off the running loop, and ``run`` is one pump
  coroutine that fires a record once ``epoch + time * time_scale`` has
  passed instead of jumping the clock to it.  Determinism of *decisions*
  survives (every random draw still flows through the seeded ``rng``);
  determinism of *interleavings* does not — which is the point of
  running on a real transport.
* :class:`SocketNetwork` — the :class:`repro.sim.network.Network`
  contract over TCP.  ``send`` draws the loss/duplication decision from
  the shared :mod:`repro.sim.faultpolicy`, encodes a frame and hands it
  to the transport; the receiving endpoint hands it to ``ingest``,
  which schedules delivery at the frame's sampled latency on the
  *virtual* clock.  Delivery-time policy (partitions, crashes, retries)
  is the inherited ``Network._deliver`` — the very code the simulator
  runs, consulting the same policy module.

A run ends on **event state**, the simulator's empty-heap condition
extended over the wire: nothing on the heap is due and the transport
holds no queued, unacked or in-flight frame.  Crashes are actuated the
same way — the pump compares ``process.crashed`` flags after every
callback and pauses or rebinds the node's endpoint on a transition.

A wall-clock budget (``NetConfig.timeout``) bounds the whole run: on
expiry the transport tears down cleanly and :class:`SocketTimeout` is
raised, carrying enough state for a partial run directory.
"""

from __future__ import annotations

import asyncio
import collections
import math
from collections.abc import Callable
from typing import Any

from repro.errors import SimulationError, SocketTimeout
from repro.net import frames
from repro.net.context import NetConfig
from repro.net.transport import TcpTransport
from repro.sim import faultpolicy
from repro.sim.events import _TIME, EventHandle, Simulator
from repro.sim.network import Message, Network

__all__ = ["NetSimulator", "SocketNetwork", "SocketTimeout"]


class NetSimulator(Simulator):
    """The discrete-event kernel, paced by the wall clock.

    Virtual time maps onto wall time as ``wall = epoch + virtual *
    time_scale``; ``now`` inverts that against the running loop, and is
    frozen at 0.0 before :meth:`run` and at the final time after.  Timers
    scheduled before the run (workloads, chaos schedules) wait on the
    inherited heap until the pump starts — the same "schedule then run"
    shape the kernel has.

    One instance supports one :meth:`run`: a socket topology's dedup and
    session state cannot be resumed meaningfully, and no cluster
    substrate runs twice.
    """

    kernel = "socket"

    def __init__(self, seed: int = 0, config: NetConfig | None = None) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None  # set while running
        super().__init__(seed)
        self.config = config or NetConfig()
        self.network: SocketNetwork | None = None
        self._epoch = 0.0
        self._ran = False
        self._wake: asyncio.Event | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------
    # what the wall clock changes: the clock, the clamps, the wakeup
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._loop is None:
            return self._now
        return (self._loop.time() - self._epoch) / self.config.time_scale

    @now.setter
    def now(self, value: float) -> None:
        self._now = value

    def schedule_at(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``; a
        deadline the wall clock has already passed fires at once."""
        return self.schedule(max(0.0, time - self.now), action)

    def post_at(self, time: float, fn: Callable, *args) -> None:
        """Fire-and-forget :meth:`schedule_at`.

        Pokes the pump: this is how a transport callback — a frame's
        delivery, scheduled by :meth:`SocketNetwork.ingest` outside the
        pump — lands on the heap, and the new record may be due before
        the deadline the pump sleeps towards.  (A ``post`` made inside
        the pump needs no poke: the pump looks at the heap after every
        callback.)
        """
        self.post(max(0.0, time - self.now), fn, *args)
        self.poke()

    def _push(self, time: float, fn: Callable, args: tuple) -> list:
        rec = super()._push(time, fn, args)
        self.poke()  # the new record may be due before the pump's deadline
        return rec

    def poke(self) -> None:
        """Have the pump look again: the heap or the transport changed."""
        if self._wake is not None:
            self._wake.set()

    def fail(self, exc: BaseException) -> None:
        """Record a failure outside the pump (a transport task's); the
        first one aborts the run and is re-raised from :meth:`run`."""
        if self._error is None:
            self._error = exc
        self.poke()

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
        """Bring the transport up, run to quiescence, tear down.

        Mirrors the discrete-event ``run``: ``until`` bounds virtual
        time, ``max_events`` bounds fired events, and the return value is
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
                pending=self.pending,
            )
        return self._now

    async def _main(self, until: float | None, max_events: int | None) -> str:
        network = self.network
        transport = (
            None if network is None else TcpTransport(network, self.config)
        )
        self._wake = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        status = "error"
        try:
            if transport is not None:
                await transport.start()
                network._go_live(transport)
            status = await self._pump(until, max_events, transport)
        finally:
            now = self.now
            self._loop = self._wake = None
            # a bounded run that is done ends *at* the bound, as the DES does
            if until is not None and (status == "done" or now > until):
                now = until
            self._now = now
            if transport is not None:
                await transport.stop()
            # one run per instance: from here the network is the cluster's
            # alone (the simulator holding it back would make a cycle)
            self.network = None
        return status

    async def _pump(
        self,
        until: float | None,
        max_events: int | None,
        transport: TcpTransport | None,
    ) -> str:
        """The kernel loop with a wall clock in it; returns why it ended.

        Fire every record whose wall deadline has passed (the inherited
        ``run``, bounded by the clock's reading), then decide from event
        state alone: the run is done the instant the heap holds nothing
        due before ``until`` and either ``until`` has come or the
        transport holds nothing — every hop a message can be on is
        counted by one of the two, and frames leave the transport for
        the heap inside one callback (:meth:`SocketNetwork.ingest`), so
        there is no gap to poll across.  Otherwise sleep until the next
        deadline, or until a push or a drained link pokes.
        """
        loop, wake, queue = self._loop, self._wake, self._queue
        scale = self.config.time_scale
        bound = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        timeout = self.config.timeout
        budget = math.inf if timeout is None else loop.time() + timeout
        watched = () if transport is None else self.network.processes
        down = [process.crashed for process in watched]
        while True:
            # one batch: what is due *now*; records the batch schedules
            # at a later reading of the clock wait for the next one, so
            # the loop services sockets between batches
            horizon = min(self.now, bound)
            while self._fired < limit:
                # the kernel's own loop, stepped one event at a time
                fired = self._fired
                super().run(until=horizon, max_events=1)
                if self._fired == fired:
                    break
                # ``crashed`` flags flip only inside callbacks, so looking
                # after each one misses no transition, however short
                flags = [process.crashed for process in watched]
                if flags != down:
                    for process, now_down, was_down in zip(watched, flags, down):
                        if now_down and not was_down:
                            transport.pause_node(process.name)
                        elif was_down and not now_down:
                            transport.resume_node(process.name)
                    down = flags
            wake.clear()
            if self._error is not None:
                return "error"
            if loop.time() >= budget:
                return "timeout"
            if self._fired >= limit:
                return "max_events"
            # the head, if there is one, is live: the kernel loop popped
            # every dead record in front of it
            idle = not queue or queue[0][_TIME] > bound
            if idle and (
                self.now >= bound or transport is None or not transport.busy()
            ):
                return "done"
            due = bound if idle else queue[0][_TIME]
            deadline = min(self._epoch + due * scale, budget)
            timer = (
                None if deadline == math.inf else loop.call_at(deadline, wake.set)
            )
            await wake.wait()
            if timer is not None:
                timer.cancel()


class SocketNetwork(Network):
    """The Network contract carried by the TCP transport.

    Send side: the loss/duplication decision and the latency sample are
    drawn from the seeded RNG exactly as the simulated network draws
    them, then the message travels as a real frame; the sampled latency
    rides along and delivery is scheduled at ``sent + latency`` on the
    virtual clock (a frame arriving early waits; one arriving late —
    loopback is fast, so this is rare — delivers immediately).

    Delivery side: the endpoint's reader hands the frame back here, and
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
        self.transport: TcpTransport | None = None
        self._outbox: list[dict] = []
        self._seqs: dict[tuple[str, str], int] = {}
        # per-(src, dst) FIFO delivery chains for reliable kinds
        self._chains: dict[tuple[str, str], collections.deque] = {}
        self._chain_live: set[tuple[str, str]] = set()
        self._start_requested = False

    # ------------------------------------------------------------------
    # channel contract
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Request ``on_start`` hooks; they run once the transport is up."""
        self._start_requested = True

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        """Route one message over TCP; may drop, duplicate, and reorder."""
        if dst not in self._processes:
            raise SimulationError(f"message to unknown process {dst!r}")
        self.sent += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_send(kind, payload)
        reliable = kind in self.reliable_kinds
        copies = faultpolicy.send_copies(
            self.sim.rng,
            reliable=reliable,
            drop_prob=self.drop_prob,
            dup_prob=self.dup_prob,
        )
        if copies == 0:
            self.dropped += 1
        elif copies == 2:
            self.duplicated += 1
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
    # receive path (transport -> virtual delivery)
    # ------------------------------------------------------------------
    def ingest(self, frame: dict) -> None:
        """Schedule one received frame's delivery (in-loop, called by the
        endpoint's reader task, so a failure is the run's, not the task's)."""
        try:
            self._schedule_delivery(frame)
        except Exception as exc:
            self.sim.fail(exc)

    def _schedule_delivery(self, frame: dict) -> None:
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
        self.sim.post_at(deliver_at, self._deliver, msg)

    def _advance_chain(self, key: tuple[str, str]) -> None:
        chain = self._chains.get(key)
        if not chain:
            self._chain_live.discard(key)
            return
        deliver_at, msg = chain.popleft()
        self.sim.post_at(deliver_at, self._deliver_chained, key, msg)

    def _deliver_chained(self, key: tuple[str, str], msg: Message) -> None:
        try:
            self._deliver(msg)
        finally:
            self._advance_chain(key)

    # ------------------------------------------------------------------
    # lifecycle (driven by NetSimulator.run)
    # ------------------------------------------------------------------
    def _go_live(self, transport: TcpTransport) -> None:
        """Attach the started transport; pre-run state goes live in its
        scheduling order: buffered sends first, then ``on_start`` hooks
        (which send live) — the buffered timers are already on the heap."""
        self.transport = transport
        for frame in self._outbox:
            transport.send(frame)
        self._outbox.clear()
        if self._start_requested:
            for process in self._processes.values():
                process.on_start()

    def transport_summary(self) -> dict:
        return {} if self.transport is None else self.transport.summary()
