"""Executes a topology on the discrete-event simulator.

Each spout/bolt task is a simulated process with a single-server service
queue (per-item execution time), so contention and pipeline imbalance show
up in virtual time exactly as they would on a cluster.  The engine provides
the Storm guarantees the paper's evaluation relies on:

* **channel FIFO** — frames between a task pair are sequence-numbered and
  reassembled in order, so batch punctuations cannot overtake data (the
  state is two integer tables per task, retired when the batch attempt
  closes, and a held-frames table that is non-empty only while a gap is
  open — see :class:`_TaskBase`);
* **batched delivery** — tuples between a task pair coalesce into frames
  of up to ``frame_size`` items carried by a single simulated message.
  Punctuations ride in-frame (a channel's last frame carries them), so
  FIFO, batch tracking, and replay all operate at frame granularity and
  the number of simulated message events shrinks roughly
  ``frame_size``-fold on the data path;
* **batch tracking** — a task finishes batch ``b`` when every upstream task
  has punctuated ``b``; it then forwards its own punctuation downstream;
* **at-least-once replay** — a spout re-emits a batch (as a new *attempt*)
  if the terminal bolt's tasks do not all acknowledge it in time, up to
  :data:`MAX_REPLAYS` times; bolts are told to reset per-batch state when
  a new attempt supersedes an old one;
* **transactional commits** (:mod:`repro.storm.transactional`) — when
  enabled, the terminal bolt's ``finish_batch`` is deferred until the
  commit coordinator grants the batch in a global serial order, which is
  Storm's "transactional topology" semantics.

What is fixed once the cluster is wired is resolved then, not per tuple:
each consuming edge's destination rule (:class:`_Router`), and the
punctuation sets a batch completes on
(:meth:`StormCluster.expected_punct_tasks`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Mapping
from functools import partial
from typing import Any

from repro.coord.assignment import ReplicaAssignment, stable_hash
from repro.coord.zookeeper import ZK_KINDS
from repro.errors import StormError
from repro.sim.network import LatencyModel, Message, Process, make_network
from repro.sim.events import make_simulator
from repro.sim.trace import Trace
from repro.storm.topology import Topology
from repro.storm.tuples import Fields, StormTuple
from repro.wire import ST_ACK as ACK, ST_CHAN as CHAN, TXN_KINDS

__all__ = ["StormCluster", "ClusterConfig", "stable_hash"]

# Virtual-time costs of the task model: one item's service at a bolt with
# no entry in ``ClusterConfig.exec_times``, one punctuation's service, and
# the spout's emission of one tuple.
DEFAULT_EXEC_TIME = 0.0002
PUNCT_TIME = 0.00001
EMIT_TIME = 0.00005
# Every channel's latency: 0.5 ms plus an exponential 1 ms mean of jitter.
LATENCY = LatencyModel(base=0.0005, jitter=0.001)
# Batches a spout task keeps in flight before it waits for an ack.
MAX_PENDING = 4
# Re-emissions of one batch before its spout task gives up on it, as
# ``faultpolicy.RETRY_LIMIT`` bounds a session.  Far above any replay count a
# healing fault needs (no audit cell replays a batch more than once; a
# 5 % loss on every message takes up to 162 attempts in the tests), it
# exists so a replay timeout shorter than a batch's round trip ends with
# the batch visibly unacked instead of superseding every attempt forever.
MAX_REPLAYS = 1000

# Channel items: a data tuple is ``(TUPLE, values)``; the punctuation that
# ends a batch attempt's channel is one shared object, as is its frame.
TUPLE = "tuple"
PUNCT = ("punct",)
_PUNCT_FRAME = (PUNCT,)


class _Router:
    """Routes emitted tuples from one task to downstream tasks.

    Everything a route needs that is fixed once the cluster is wired is
    resolved here, into one ``(key, table)`` pair per consuming edge: the
    destination of a tuple is ``table[key(values)]``.  A fields grouping's
    key is its column projection (so a grouping on an undeclared field is
    a construction-time error) and its table a :class:`_KeyRoutes`; a
    shuffle's key turns through the consumer's task positions.
    """

    def __init__(
        self,
        task: "_TaskBase",
        cluster: "StormCluster",
        component: str,
        output_fields: Fields,
    ):
        self.task = task
        self._routes: list[tuple[Any, Any]] = []
        # every consumer task, in wiring order: where punctuations go
        self.consumer_tasks: list[str] = []
        for consumer, grouping in cluster.topology.consumers_of(component):
            names = cluster.task_names(consumer)
            self.consumer_tasks.extend(names)
            if grouping.mode == "fields":
                key = output_fields.projector(grouping.fields)
                table = _KeyRoutes(cluster.assignment, consumer)
            else:  # shuffle
                key, table = _turns(len(names)), names
            self._routes.append((key, table))

    def route(self, batch: int, attempt: int, values: tuple) -> None:
        send_chan = self.task.send_chan
        item = (TUPLE, values)
        for key, table in self._routes:
            send_chan(table[key(values)], batch, attempt, item)

    def broadcast_punct(self, batch: int, attempt: int) -> None:
        telemetry = self.task.sim.telemetry
        if telemetry is not None and self.consumer_tasks:
            # in-frame punctuations are batch-tracking machinery present
            # under every strategy: a delivery-plane decision, not a
            # coordination message
            telemetry.note_decision("punctuation", topic=self.task.component)
        close_chan = self.task.close_chan
        for name in self.consumer_tasks:
            close_chan(name, batch, attempt)


class _KeyRoutes(dict):
    """A fields grouping's key -> consumer task, filled on first sight.

    The one shared routing formula, ``ReplicaAssignment.task_for``: seal
    producer sets are derived from the same assignment, so they must
    agree.  It is a pure function of the key, so each key pays it once.
    Keys compare with ``==``: equal keys that print differently, like 1
    and 1.0, share a destination.
    """

    __slots__ = ("assignment", "consumer")

    def __init__(self, assignment: ReplicaAssignment, consumer: str) -> None:
        super().__init__()
        self.assignment = assignment
        self.consumer = consumer

    def __missing__(self, key) -> str:
        dst = self[key] = self.assignment.task_for(self.consumer, key)
        return dst


def _turns(count: int):
    """A shuffle grouping's key: the task positions in turn, whatever the
    tuple."""
    positions = itertools.cycle(range(count))
    return lambda values: next(positions)


class _TaskBase(Process):
    """Shared channel machinery.

    Channels are sequenced per ``(destination, batch, attempt)`` and
    reassembled per ``(source, batch, attempt)``.  FIFO only matters
    *within* a batch — a punctuation must not overtake the data records it
    covers — so scoping the sequence space to one batch attempt means a
    message lost to the network stalls only that attempt, and the spout's
    replay (a fresh attempt, hence fresh channels) recovers it.

    Outgoing items accumulate per channel into a *frame* of up to
    ``frame_size`` items; one sequence number covers one frame, and one
    simulated message carries it (at ``frame_size`` 1, the usual case, an
    item is its own frame and is sent at once).  A batch attempt ends in
    :meth:`close_chan` on every downstream channel: the last frame carries
    whatever is buffered and then the punctuation, so the punctuation
    cannot overtake the records it covers and no data is left stranded in
    a partial frame.

    Channel state is integers, and retired when the batch attempt closes:
    ``_chan_seq`` holds the next sequence number to send and ``_recv_seq``
    the next one expected, and a channel appears in ``_held`` (``seq ->
    frame``) only while a gap is open.  The sender drops a channel's
    counter with its punctuation; a bolt drops the receive counters of a
    batch attempt once every expected source has punctuated it, and keeps
    one ``(batch, attempt)`` tombstone in ``_closed`` so that a late copy
    of any of their frames is still ignored, not executed again.  A run
    opens a channel per (task pair, batch attempt) and sends two or three
    frames down it, so an object per channel would cost more than the
    frames it orders, and state kept to the end of the run would be what
    the cyclic collector keeps re-traversing.  The reassembly rule —
    release the contiguous prefix, apply a duplicate once — is the one
    :mod:`repro.coord.ordering`'s inbox applies, with an object per
    channel, to the sequencer: a handful of long-lived channels carrying
    thousands of messages each, the opposite traffic.  (A seal manager's
    producer channels are of the inbox's kind, so
    :mod:`repro.coord.sealing` reassembles each with one.)
    """

    def __init__(self, name: str, cluster: "StormCluster") -> None:
        super().__init__(name)
        self.cluster = cluster
        self.frame_size = cluster.config.frame_size
        self._chan_seq: dict[tuple[str, int, int], int] = {}
        self._out_frames: dict[tuple[str, int, int], list[tuple]] = {}
        self._recv_seq: dict[tuple[str, int, int], int] = {}
        self._held: dict[tuple[str, int, int], dict[int, tuple]] = {}
        self._closed: set[tuple[int, int]] = set()
        self.frames_sent = 0
        self.items_sent = 0

    def send_chan(self, dst: str, batch: int, attempt: int, item: tuple) -> None:
        """Send one data item down channel ``(dst, batch, attempt)``."""
        key = (dst, batch, attempt)
        if self.frame_size == 1:
            frame = (item,)
        else:
            buffered = self._out_frames.get(key)
            if buffered is None:
                self._out_frames[key] = [item]
                return
            buffered.append(item)
            if len(buffered) < self.frame_size:
                return
            del self._out_frames[key]
            frame = tuple(buffered)
        seq = self._chan_seq.get(key, 0)
        self._chan_seq[key] = seq + 1
        # counted when sent, not when buffered: items a replay discards
        # from _out_frames were never carried by any frame
        self.frames_sent += 1
        self.items_sent += len(frame)
        self.network.send(self.name, dst, CHAN, (self.name, batch, attempt, seq, frame))

    def close_chan(self, dst: str, batch: int, attempt: int) -> None:
        """Send the channel's last frame — anything buffered, then the
        punctuation — and retire its sequence counter."""
        key = (dst, batch, attempt)
        buffered = self._out_frames.pop(key, None)
        frame = _PUNCT_FRAME if buffered is None else (*buffered, PUNCT)
        seq = self._chan_seq.pop(key, 0)
        self.frames_sent += 1
        self.items_sent += len(frame)
        self.network.send(self.name, dst, CHAN, (self.name, batch, attempt, seq, frame))

    def handle_chan(self, msg: Message) -> None:
        src, batch, attempt, seq, frame = msg.payload
        key = (src, batch, attempt)
        expected = self._recv_seq.get(key)
        if expected is None:
            if (batch, attempt) in self._closed:
                return  # a late copy of a frame of a closed batch attempt
            expected = 0
        on_item = self.on_item
        if seq == expected and not self._held:
            # in order with no gap open: the frame releases itself alone
            self._recv_seq[key] = seq + 1
            for item in frame:
                on_item(src, batch, attempt, item)
            return
        if seq != expected:
            # ahead of a gap: hold it (once); behind: a duplicate
            if seq > expected:
                self._held.setdefault(key, {}).setdefault(seq, frame)
            return
        held = self._held.get(key)
        while frame is not None:
            seq += 1
            self._recv_seq[key] = seq
            for item in frame:
                on_item(src, batch, attempt, item)
            frame = held.pop(seq, None) if held else None
        if held is not None and not held:  # the gap closed
            del self._held[key]

    def drop_stale_channels(self, batch: int, before_attempt: int) -> None:
        """Discard channel state of superseded attempts of a batch."""
        for table in (self._recv_seq, self._held, self._out_frames, self._chan_seq):
            stale = [
                key
                for key in table
                if key[1] == batch and key[2] < before_attempt
            ]
            for key in stale:
                del table[key]

    def on_item(self, src: str, batch: int, attempt: int, item: tuple) -> None:
        raise NotImplementedError  # pragma: no cover


class _SpoutTask(_TaskBase):
    """Drives one spout instance: emits batches, tracks acks, replays."""

    def __init__(self, name: str, cluster: "StormCluster", component: str, index: int):
        super().__init__(name, cluster)
        self.component = component
        self.index = index
        self.spout = cluster.topology.declaration(component).factory()
        self.router = _Router(self, cluster, component, self.spout.output_fields)
        self.exhausted = False
        self.next_local = 0
        self.pending: dict[int, set[str]] = {}  # batch -> ackers outstanding
        self.attempts: dict[int, int] = {}
        self.batch_cache: dict[int, list[tuple]] = {}
        self.replay_timers: dict[int, Any] = {}
        self.replays = 0

    def on_start(self) -> None:
        self._fill_pipeline()

    def _fill_pipeline(self) -> None:
        while not self.exhausted and len(self.pending) < MAX_PENDING:
            batch = self._allocate_batch_id()
            contents = self.spout.next_batch(batch)
            if contents is None:
                self.exhausted = True
                break
            self.batch_cache[batch] = contents
            self.attempts[batch] = 0
            self.pending[batch] = set(self.cluster.acker_tasks)
            self._emit_batch(batch)

    def _allocate_batch_id(self) -> int:
        width = len(self.cluster.task_names(self.component))
        batch = self.next_local * width + self.index
        self.next_local += 1
        return batch

    def _emit_batch(self, batch: int) -> None:
        config = self.cluster.config
        contents = self.batch_cache[batch]
        attempt = self.attempts[batch]
        emit_cost = EMIT_TIME * max(1, len(contents))

        def do_emit() -> None:
            for values in contents:
                self.router.route(batch, attempt, values)
            self.router.broadcast_punct(batch, attempt)
            self.cluster.trace.record(self.now, self.name, "batch_emitted", batch)
            if config.replay_timeout is not None:
                self.replay_timers[batch] = self.after(
                    config.replay_timeout, lambda: self._replay(batch)
                )

        self.after(emit_cost, do_emit)

    def _replay(self, batch: int) -> None:
        if batch not in self.pending:
            return
        if self.attempts[batch] >= MAX_REPLAYS:
            # give up: the batch stays unacked (a late ack of an attempt
            # still in flight finds nothing pending), and its slot goes to
            # the next batch
            del self.pending[batch]
            self.replay_timers.pop(batch, None)
            self.batch_cache.pop(batch, None)
            self.cluster.trace.record(self.now, self.name, "batch_abandoned", batch)
            self._fill_pipeline()
            return
        self.replays += 1
        self.attempts[batch] += 1
        self.pending[batch] = set(self.cluster.acker_tasks)
        self.cluster.trace.record(self.now, self.name, "batch_replayed", batch)
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_decision(
                "replay",
                topic=self.component,
                lineage=f"batch:{batch}",
                node=self.name,
                time=self.now,
                detail=f"attempt={self.attempts[batch]}",
            )
        self._emit_batch(batch)

    def recv(self, msg: Message) -> None:
        if msg.kind == CHAN:
            self.handle_chan(msg)
        elif msg.kind == ACK:
            self._on_ack(msg.payload, msg.src)
        else:
            raise StormError(f"spout task got unexpected message {msg.kind}")

    def _on_ack(self, batch: int, acker: str) -> None:
        outstanding = self.pending.get(batch)
        if outstanding is None:
            return
        outstanding.discard(acker)
        if outstanding:
            return
        del self.pending[batch]
        timer = self.replay_timers.pop(batch, None)
        if timer is not None:
            timer.cancel()
        self.batch_cache.pop(batch, None)
        self.cluster.note_batch_acked(batch, self.now)
        self._fill_pipeline()

    def on_item(self, src, batch, attempt, item):  # pragma: no cover
        raise StormError("spout tasks consume no channels")


class _BoltTask(_TaskBase):
    """Executes one bolt instance with a single-server service queue."""

    def __init__(self, name: str, cluster: "StormCluster", component: str):
        super().__init__(name, cluster)
        self.component = component
        self.bolt = cluster.topology.declaration(component).factory()
        self.router = _Router(self, cluster, component, self.bolt.output_fields)
        self.exec_time = cluster.config.exec_times.get(component, DEFAULT_EXEC_TIME)
        self.is_terminal = not self.router.consumer_tasks
        self.transactional = (
            cluster.config.transactional and self.is_terminal
        )
        self._queue: deque[tuple[str, tuple]] = deque()
        self._busy = False
        self._puncts: dict[tuple[int, int], set[str]] = {}
        self._batch_attempt: dict[int, int] = {}
        self._finished: set[int] = set()
        # batch -> the emit bound to its current attempt (one per attempt)
        self._emits: dict[int, partial] = {}
        self.processed_tuples = 0
        self.bolt.prepare(self)

    # ------------------------------------------------------------------
    # channel input -> service queue
    # ------------------------------------------------------------------
    def recv(self, msg: Message) -> None:
        if msg.kind == CHAN:
            self.handle_chan(msg)
        elif not (
            self.transactional and self.cluster.coordinator.handle_task_message(self, msg)
        ):
            raise StormError(
                f"bolt task {self.name} got unexpected message {msg.kind}"
            )

    def on_item(self, src: str, batch: int, attempt: int, item: tuple) -> None:
        if self._busy:
            self._queue.append((src, batch, attempt, item))
            return
        # idle: the item goes straight into service, never into the queue
        self._busy = True
        cost = self.exec_time if item[0] == TUPLE else PUNCT_TIME
        self.sim.post(cost, self._service, src, batch, attempt, item)

    def _pump(self) -> None:
        if not self._queue:
            self._busy = False
            return
        src, batch, attempt, item = self._queue.popleft()
        # punctuations are control messages: near-free to process
        cost = self.exec_time if item[0] == TUPLE else PUNCT_TIME
        self.sim.post(cost, self._service, src, batch, attempt, item)

    def _service(self, src: str, batch: int, attempt: int, item: tuple) -> None:
        current = self._batch_attempt.get(batch)
        if current != attempt:
            if current is not None and attempt < current:
                # an item of a superseded attempt: never executed
                self._pump()
                return
            self._ensure_attempt(batch, attempt)
        kind = item[0]
        if kind == TUPLE:
            self.processed_tuples += 1
            self.bolt.execute(StormTuple(item[1], batch), self._emits[batch])
        elif item == PUNCT:
            self._on_punct(src, batch, attempt)
        else:  # pragma: no cover - defensive
            raise StormError(f"unknown channel item {kind!r}")
        self._pump()

    # ------------------------------------------------------------------
    # replay attempts
    # ------------------------------------------------------------------
    def _ensure_attempt(self, batch: int, attempt: int) -> None:
        current = self._batch_attempt.get(batch)
        if current is not None and attempt <= current:
            return
        self._batch_attempt[batch] = attempt
        self._emits[batch] = partial(self.router.route, batch, attempt)
        if current is not None:
            # A replay superseded the old attempt: reset per-batch state.
            self._puncts.pop((batch, current), None)
            self._finished.discard(batch)
            self.drop_stale_channels(batch, attempt)
            self._queue = deque(
                entry for entry in self._queue if not (entry[1] == batch and entry[2] < attempt)
            )
            reset = getattr(self.bolt, "reset_batch", None)
            if reset is not None:
                reset(batch)

    # ------------------------------------------------------------------
    # batch completion
    # ------------------------------------------------------------------
    def _on_punct(self, src: str, batch: int, attempt: int) -> None:
        key = (batch, attempt)
        seen = self._puncts.get(key)
        if seen is None:
            seen = self._puncts[key] = set()
        seen.add(src)
        expected = self.cluster.expected_punct_tasks(self.component, batch)
        if not expected <= seen:
            return
        del self._puncts[key]
        # every expected source has sent its channel's last frame: the
        # attempt's receive counters retire, and its tombstone stays
        for source in expected:
            self._recv_seq.pop((source, batch, attempt), None)
        self._closed.add(key)
        if batch in self._finished:
            return
        self._finished.add(batch)
        if self.transactional:
            self.cluster.coordinator.mark_ready(self, batch)
        else:
            self.complete_batch(batch, attempt)

    def has_finished(self, batch: int) -> bool:
        """Has the current attempt of ``batch`` been punctuated by every
        upstream task?"""
        return batch in self._finished

    def complete_batch(self, batch: int, attempt: int | None = None) -> None:
        """Run ``finish_batch``, forward punctuation, and acknowledge."""
        if attempt is None:
            attempt = self._batch_attempt.get(batch, 0)
        emitted: list[tuple] = []
        self.bolt.finish_batch(batch, emitted.append)
        for values in emitted:
            self.router.route(batch, attempt, values)
        self.router.broadcast_punct(batch, attempt)
        self.cluster.trace.record(
            self.now, self.name, "batch_finished", (self.component, batch, len(emitted))
        )
        if self.is_terminal:
            owner = self.cluster.batch_owner(batch)
            self.send(owner, ACK, batch)
            self.cluster.trace.record(self.now, self.name, "batch_acked", batch)
            telemetry = self.sim.telemetry
            if telemetry is not None:
                telemetry.note_decision(
                    "batch_commit",
                    topic=self.component,
                    lineage=f"batch:{batch}",
                    node=self.name,
                    time=self.now,
                )


class ClusterConfig:
    """Tunable parameters for one cluster run.

    ``exec_times`` maps component name to per-item service time
    (:data:`DEFAULT_EXEC_TIME` for a component it omits);
    ``transactional`` defers the terminal bolt's batch completion to the
    commit coordinator (see :mod:`repro.storm.transactional`);
    ``frame_size`` is the channel-delivery batching factor (1 = one
    simulated message per tuple, the unbatched seed behavior);
    ``parallelism`` overrides per-component replica counts declared in the
    topology, making scale-out a run-time knob rather than a topology
    rebuild.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        drop_prob: float = 0.0,
        exec_times: dict[str, float] | None = None,
        replay_timeout: float | None = None,
        transactional: bool = False,
        frame_size: int = 1,
        parallelism: dict[str, int] | None = None,
    ) -> None:
        # a wrongly typed setting (a ``--set`` value) is an error here, not
        # a TypeError from the first comparison that meets it
        for setting, value in (("exec_times", exec_times), ("parallelism", parallelism)):
            if value is not None and not isinstance(value, Mapping):
                raise StormError(f"{setting} must map component names, got {value!r}")
        if not isinstance(frame_size, (int, float)):
            raise StormError(f"frame_size must be a number, got {frame_size!r}")
        if not isinstance(replay_timeout, (int, float, type(None))):
            raise StormError(f"replay_timeout must be a number, got {replay_timeout!r}")
        if frame_size < 1:
            raise StormError(f"frame_size must be >= 1, got {frame_size}")
        # checked here, not discovered from inside the event loop: a
        # non-positive timeout replays a batch before it can be acked, and
        # a negative service time schedules into the past
        if replay_timeout is not None and not replay_timeout > 0:  # NaN fails too
            raise StormError(f"replay_timeout must be > 0, got {replay_timeout}")
        for component, exec_time in (exec_times or {}).items():
            if not exec_time >= 0:
                raise StormError(
                    f"exec_times[{component!r}] must be >= 0, got {exec_time}"
                )
        self.seed = seed
        self.drop_prob = drop_prob
        self.exec_times = exec_times or {}
        self.replay_timeout = replay_timeout
        self.transactional = transactional
        self.frame_size = frame_size
        self.parallelism = dict(parallelism or {})


class StormCluster:
    """A topology deployed on the simulator."""

    def __init__(self, topology: Topology, config: ClusterConfig | None = None):
        topology.validate()
        self.topology = topology
        self.config = config or ClusterConfig()
        self.sim = make_simulator(seed=self.config.seed)
        # Control-plane traffic (Zookeeper sessions, commit coordination)
        # rides TCP-backed sessions in real deployments: exempt from loss.
        reliable = ZK_KINDS + TXN_KINDS
        self.network = make_network(
            self.sim,
            latency=LATENCY,
            drop_prob=self.config.drop_prob,
            reliable_kinds=reliable,
        )
        self.trace = Trace()
        for setting in ("parallelism", "exec_times"):
            unknown = set(getattr(self.config, setting)) - set(topology.declarations)
            if unknown:
                raise StormError(
                    f"{setting} overrides for unknown components: {sorted(unknown)}"
                )
        self.assignment = ReplicaAssignment(
            {
                name: self.config.parallelism.get(name, decl.parallelism)
                for name, decl in topology.declarations.items()
            }
        )
        self._spout_tasks: list[str] = []
        self._bolt_tasks: dict[str, _BoltTask] = {}
        self.batches_acked: list[tuple[int, float]] = []
        self._terminal = self._find_terminal()
        self._spout_period = math.lcm(
            *(len(self.task_names(spout)) for spout in topology.spouts)
        )
        self._expected_puncts: dict[tuple[str, int], frozenset[str]] = {}
        self._build_tasks()
        self.coordinator = None
        if self.config.transactional:
            from repro.storm.transactional import install_transactional

            self.coordinator = install_transactional(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _find_terminal(self) -> str:
        terminals = [
            name
            for name in self.topology.bolts
            if not self.topology.consumers_of(name)
        ]
        if len(terminals) != 1:
            raise StormError(
                f"expected exactly one terminal bolt, found {terminals}"
            )
        return terminals[0]

    def task_names(self, component: str) -> list[str]:
        """The replica tasks a component runs as (config may override)."""
        self.topology.declaration(component)  # raise on unknown components
        return list(self.assignment.tasks_of(component))

    def expected_punct_tasks(self, component: str, batch: int) -> frozenset[str]:
        """Upstream tasks whose punctuation completes ``batch`` here.

        Every task of an upstream *bolt* forwards a punctuation for every
        batch, but a *spout* batch is emitted (and punctuated) only by its
        owning spout task.
        """
        # the answer depends on the batch only through which task of each
        # spout owns it, so it repeats with the lcm of the spouts' widths
        key = (component, batch % self._spout_period)
        expected = self._expected_puncts.get(key)
        if expected is None:
            names: set[str] = set()
            for grouping in self.topology.declaration(component).groupings:
                source = grouping.source
                tasks = self.task_names(source)
                if self.topology.declaration(source).is_spout:
                    names.add(tasks[batch % len(tasks)])
                else:
                    names.update(tasks)
            expected = self._expected_puncts[key] = frozenset(names)
        return expected

    def _build_tasks(self) -> None:
        for component in self.topology.spouts:
            for index, name in enumerate(self.task_names(component)):
                task = _SpoutTask(name, self, component, index)
                self.network.register(task)
                self._spout_tasks.append(name)
        for component in self.topology.bolts:
            for name in self.task_names(component):
                task = _BoltTask(name, self, component)
                self.network.register(task)
                self._bolt_tasks[name] = task

    # ------------------------------------------------------------------
    # cluster-wide facts used by tasks
    # ------------------------------------------------------------------
    @property
    def acker_tasks(self) -> list[str]:
        """Terminal-bolt tasks: the processes that acknowledge batches."""
        return self.task_names(self._terminal)

    def batch_owner(self, batch: int) -> str:
        """The spout task that emitted (and can replay) a batch."""
        return self._spout_tasks[batch % len(self._spout_tasks)]

    def note_batch_acked(self, batch: int, time: float) -> None:
        self.batches_acked.append((batch, time))
        self.trace.record(time, "cluster", "batch_complete", batch)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        """Start every task and drain the simulation."""
        self.network.start()
        return self.sim.run(until=until, max_events=max_events)

    def bolt_task(self, name: str) -> _BoltTask:
        return self._bolt_tasks[name]

    def committed_store(self) -> dict:
        """The terminal bolt's per-task ``store`` dicts, merged at quiescence.

        Fields grouping keeps the tasks' key spaces disjoint; a key
        committed on two tasks is an executor bug, raised as such.
        """
        store: dict = {}
        for name in self.acker_tasks:
            own = self.bolt_task(name).bolt.store
            overlap = store.keys() & own.keys()
            if overlap:
                raise StormError(
                    f"same key committed on two tasks: {sorted(overlap)[:5]}"
                )
            store.update(own)
        return store

    @property
    def total_replays(self) -> int:
        return sum(
            task.replays
            for task in self.network.processes
            if isinstance(task, _SpoutTask)
        )

    @property
    def total_frames_sent(self) -> int:
        """Channel frames sent (each is one simulated message)."""
        return sum(
            task.frames_sent
            for task in self.network.processes
            if isinstance(task, _TaskBase)
        )

    @property
    def total_items_sent(self) -> int:
        """Channel items (tuples + punctuations) carried by those frames."""
        return sum(
            task.items_sent
            for task in self.network.processes
            if isinstance(task, _TaskBase)
        )
