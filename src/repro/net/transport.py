"""The asyncio TCP transport: per-peer connections + reliable sessions.

Topology: every node owns one :class:`Endpoint` (a TCP server on an
ephemeral loopback port), and every directed pair of communicating nodes
one :class:`Link` (a dialed connection from the sender to the receiver's
endpoint).  Data frames flow src -> dst on the link's connection; acks
flow back on the same connection.

The ``reliable_kinds`` session layer mirrors the simulated network's
contract exactly (the shared policy lives in
:mod:`repro.sim.faultpolicy`):

* reliable frames carry a per-``(src, dst)`` sequence number; the
  receiver acks every one and dedups redeliveries by seq;
* unacked frames are retransmitted — immediately on reconnect (in seq
  order, ahead of new traffic), and periodically by the transport's
  retransmit sweep (covering lost acks and crashed receivers under
  ``retry_crashed``);
* a session gives up after ``retry_limit`` attempts, so a *permanent*
  crash ends in observable loss instead of a run that never quiesces;
* unreliable frames are written once; an unreachable or crashed peer
  means they are dropped, exactly where the simulator drops them.

A crashed node's endpoint is paused (server closed, connections aborted)
when the runtime's pump sees its ``crashed`` flag flip; dialing it fails
until it restarts on the *same* port, which is what makes "reconnect +
redeliver across peer restarts" real rather than simulated.

Quiescence is event state: a link holds a frame while it is queued,
unacked, or written and not yet read (``Link.busy``), and pokes the pump
(:meth:`~repro.net.services.NetSimulator.poke`) whenever it drains.
"""

from __future__ import annotations

import asyncio
import collections
from typing import TYPE_CHECKING

from repro.net import frames
from repro.net.context import NetConfig
from repro.sim import faultpolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.services import SocketNetwork

__all__ = ["Endpoint", "Link", "TcpTransport"]


class TcpTransport:
    """All endpoints and links of one socket-backed cluster."""

    def __init__(self, network: "SocketNetwork", config: NetConfig) -> None:
        self.network = network
        self.config = config
        self.dumps, self.loads = frames.make_codec(frames.CODEC)
        self.endpoints: dict[str, Endpoint] = {}
        self.links: dict[tuple[str, str], Link] = {}
        # node -> bound port; survives pause/resume so a restarted node
        # comes back at the same address and peers can redial it
        self.ports: dict[str, int] = {}
        self.counters: collections.Counter = collections.Counter()
        self._retransmit_task: asyncio.Task | None = None
        self.closed = False

    async def start(self) -> None:
        for process in self.network.processes:
            endpoint = Endpoint(self, process.name)
            await endpoint.start()
            self.endpoints[process.name] = endpoint
        self._retransmit_task = asyncio.create_task(self._retransmit_loop())

    async def stop(self) -> None:
        self.closed = True
        if self._retransmit_task is not None:
            self._retransmit_task.cancel()
        for link in self.links.values():
            await link.close()
        for endpoint in self.endpoints.values():
            await endpoint.pause()
        self._retransmit_task = None
        # stopped, it reads nothing of the run again (summary() reads its
        # own counters); its links, endpoints and tasks refer to one
        # another, so holding on would keep the network in their cycle
        self.network = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, frame: dict) -> None:
        """Hand one frame to its link (in-loop, synchronous)."""
        self.link(frame["src"], frame["dst"]).enqueue(frame)

    def link(self, src: str, dst: str) -> "Link":
        key = (src, dst)
        link = self.links.get(key)
        if link is None:
            link = self.links[key] = Link(self, src, dst)
        return link

    def busy(self) -> bool:
        """Frames still inside the transport pipeline?"""
        return any(link.busy() for link in self.links.values())

    def pause_node(self, name: str) -> None:
        endpoint = self.endpoints.get(name)
        if endpoint is not None:
            asyncio.ensure_future(endpoint.pause())

    def resume_node(self, name: str) -> None:
        endpoint = self.endpoints.get(name)
        if endpoint is not None:
            asyncio.ensure_future(endpoint.resume())
        # wake senders holding retransmit queues for the restarted peer
        for (_, dst), link in self.links.items():
            if dst == name:
                link.poke()

    def summary(self) -> dict:
        """The transport block of a socket run's metrics."""
        return {
            "codec": frames.CODEC,
            "host": self.config.host,
            "nodes": len(self.endpoints),
            "links": len(self.links),
            **{
                key: int(value)
                for key, value in sorted(self.counters.items())
                if ":" not in key
            },
        }

    async def _retransmit_loop(self) -> None:
        while not self.closed:
            await asyncio.sleep(self.config.retransmit_interval)
            for link in list(self.links.values()):
                link.retransmit_due()


class Endpoint:
    """One node's TCP server: receives data frames, sends acks."""

    def __init__(self, transport: TcpTransport, name: str) -> None:
        self.transport = transport
        self.name = name
        self.server: asyncio.base_events.Server | None = None
        self.paused = False
        self._writers: set[asyncio.StreamWriter] = set()
        # reliable dedup state per sender; survives pause/resume (the
        # session layer it models persists its watermark, which is what
        # makes retry_crashed redelivery exactly-once, as in the sim)
        self._seen: dict[str, set[int]] = {}

    async def start(self) -> None:
        config = self.transport.config
        port = self.transport.ports.get(self.name, 0)
        self.server = await asyncio.start_server(
            self._serve, config.host, port
        )
        self.transport.ports[self.name] = self.server.sockets[0].getsockname()[1]

    async def pause(self) -> None:
        """Take the node off the network: close the server, abort conns."""
        self.paused = True
        if self.server is not None:
            self.server.close()
            self.server = None
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()

    async def resume(self) -> None:
        """Restart the node's server on its original port."""
        if not self.paused:
            return
        self.paused = False
        await self.start()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        transport = self.transport
        try:
            while True:
                frame = await frames.read_frame(reader, transport.loads)
                if frame is None:
                    break
                self._on_frame(frame, writer)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # loop teardown: finish cleanly so the streams machinery does
            # not re-raise out of its connection_made callback
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    def _on_frame(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        transport = self.transport
        transport.counters["frames_received"] += 1
        link = transport.links.get((frame["src"], self.name))
        if link is not None:
            link.note_received()
        seq = frame.get("seq")
        if seq is not None:
            src = frame["src"]
            # ack first — redeliveries of an already-seen seq still ack,
            # that is how the sender learns a lost ack's frame landed
            try:
                writer.write(
                    frames.pack_frame(
                        {"ctrl": "ack", "node": self.name, "seq": seq},
                        transport.dumps,
                    )
                )
                transport.counters["acks_sent"] += 1
            except (ConnectionError, OSError):
                pass
            seen = self._seen.setdefault(src, set())
            if seq in seen:
                transport.counters["dedups"] += 1
                return
            seen.add(seq)
        transport.network.ingest(frame)


class Link:
    """One directed sender -> receiver connection with a session queue."""

    def __init__(self, transport: TcpTransport, src: str, dst: str) -> None:
        self.transport = transport
        self.src = src
        self.dst = dst
        self.queue: collections.deque = collections.deque()
        # reliable session state: seq -> frame awaiting ack
        self.unacked: dict[int, dict] = {}
        self.sent_wall: dict[int, float] = {}
        self.attempts: dict[int, int] = {}
        self.writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        # frames written on the current connection and not yet read by
        # the receiver — the in-kernel in-flight window the quiescence
        # check must see; reset when the connection dies (its contents
        # are either lost-with-the-connection or covered by `unacked`)
        self.conn_in_transit = 0
        self._wake = asyncio.Event()
        self.closed = False
        self._task = asyncio.create_task(self._run())

    # ------------------------------------------------------------------
    # producer side (in-loop, synchronous)
    # ------------------------------------------------------------------
    def enqueue(self, frame: dict) -> None:
        self.queue.append(frame)
        self._wake.set()

    def poke(self) -> None:
        self._wake.set()

    def busy(self) -> bool:
        return bool(self.queue or self.unacked or self.conn_in_transit > 0)

    def _settle(self) -> None:
        """Tell the pump when the last frame this link held is gone."""
        if not self.busy():
            self.transport.network.sim.poke()

    def note_received(self) -> None:
        if self.conn_in_transit > 0:
            self.conn_in_transit -= 1
            self._settle()

    def retransmit_due(self) -> None:
        """Requeue unacked frames older than the retransmit interval."""
        if not self.unacked:
            return
        now = asyncio.get_running_loop().time()
        interval = self.transport.config.retransmit_interval
        network = self.transport.network
        for seq in sorted(self.unacked):
            if now - self.sent_wall.get(seq, now) < interval:
                continue
            attempts = self.attempts.get(seq, 0) + 1
            self.attempts[seq] = attempts
            if (
                faultpolicy.retry_action(attempts, network.retry_limit)
                is faultpolicy.DROP
            ):
                # session timeout: same observable loss as the simulator
                self._forget(seq)
                network.dropped += 1
                self.transport.counters["abandoned"] += 1
                continue
            frame = self.unacked[seq]
            if frame not in self.queue:
                self.queue.append(frame)
                self.transport.counters["retransmits"] += 1
        self._wake.set()

    # ------------------------------------------------------------------
    # writer task
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        config = self.transport.config
        while not self.closed:
            if not self.queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            if self.writer is None:
                if not await self._connect():
                    self._peer_unreachable()
                    if self.queue or self.unacked:
                        await asyncio.sleep(config.reconnect_backoff)
                    continue
            frame = self.queue.popleft()
            seq = frame.get("seq")
            try:
                data = frames.pack_frame(frame, self.transport.dumps)
                self.writer.write(data)
                self.conn_in_transit += 1
                self.transport.counters["frames_sent"] += 1
                self.transport.counters["bytes_sent"] += len(data)
                if seq is not None:
                    self.unacked.setdefault(seq, frame)
                    self.sent_wall[seq] = asyncio.get_running_loop().time()
                await self.writer.drain()
            except (ConnectionError, OSError):
                if seq is None:
                    # an unreliable frame died with the connection: the
                    # same drop the simulator counts at delivery time
                    self.transport.network.dropped += 1
                self._on_disconnect()

    async def _connect(self) -> bool:
        transport = self.transport
        endpoint = transport.endpoints.get(self.dst)
        port = transport.ports.get(self.dst)
        if endpoint is None or endpoint.paused or port is None:
            return False
        try:
            reader, writer = await asyncio.open_connection(
                transport.config.host, port
            )
        except OSError:
            return False
        self.writer = writer
        self.conn_in_transit = 0
        key = "reconnects" if transport.counters[f"connected:{self.src}->{self.dst}"] else "connects"
        transport.counters[f"connected:{self.src}->{self.dst}"] += 1
        transport.counters[key] += 1
        # session resume: retransmit unacked frames first, in seq order,
        # ahead of anything newly queued — per-(src, dst) FIFO survives
        # the reconnect
        pending = [
            frame for frame in self.queue if frame.get("seq") not in self.unacked
        ]
        resend = [self.unacked[seq] for seq in sorted(self.unacked)]
        for seq in self.unacked:
            self.attempts[seq] = self.attempts.get(seq, 0)
        self.queue = collections.deque(resend + pending)
        self._reader_task = asyncio.create_task(self._read_acks(reader, writer))
        return True

    async def _read_acks(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        transport = self.transport
        try:
            while True:
                frame = await frames.read_frame(reader, transport.loads)
                if frame is None:
                    break
                if frame.get("ctrl") == "ack":
                    self._forget(frame["seq"])
        except (ConnectionError, OSError):
            pass
        if self.writer is writer:
            self._on_disconnect()

    def _forget(self, seq: int) -> None:
        self.unacked.pop(seq, None)
        self.sent_wall.pop(seq, None)
        self.attempts.pop(seq, None)
        self._settle()

    def _on_disconnect(self) -> None:
        if self.writer is not None:
            try:
                self.writer.transport.abort()
            except Exception:
                pass
            self.writer = None
        self.conn_in_transit = 0
        self._wake.set()
        self._settle()

    def _peer_unreachable(self) -> None:
        """Apply the crash policy to queued traffic at a dead peer.

        The receiver-side dispatch check is the authoritative policy
        (exactly where the simulator checks); this sender-side path only
        covers frames that cannot reach it because the peer's endpoint
        is down: unreliable frames are dropped (the simulator drops them
        at delivery while the destination is crashed), and reliable
        frames are dropped unless ``retry_crashed`` holds them for
        redelivery after the restart.
        """
        network = self.transport.network
        process = network._processes.get(self.dst)
        keep_reliable = network.retry_crashed and process is not None
        kept: collections.deque = collections.deque()
        for frame in self.queue:
            reliable = frame.get("seq") is not None
            if reliable and keep_reliable:
                kept.append(frame)
                continue
            if reliable:
                self._forget(frame["seq"])
            network.dropped += 1
        self.queue = kept
        if not keep_reliable:
            for seq in list(self.unacked):
                self._forget(seq)
                network.dropped += 1
        self._settle()

    async def close(self) -> None:
        self.closed = True
        self._wake.set()
        for task in (self._task, self._reader_task):
            if task is not None:
                task.cancel()
        if self.writer is not None:
            try:
                self.writer.transport.abort()
            except Exception:
                pass
            self.writer = None
