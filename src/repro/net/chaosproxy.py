"""Wall-clock fault actuation at the transport layer.

The chaos pipeline is unchanged from the simulator: a
:class:`~repro.chaos.schedule.FaultSchedule` (normalized time, role
names) is scaled onto the app's horizon and applied through the *same*
:class:`~repro.sim.failure.FailureInjector` — the injector only talks to
the channel contract (``network.sim.post_at``, ``block_link``,
``drop_prob``/``dup_prob``/``latency`` mutation, ``process.crashed``),
so it works against a :class:`~repro.net.services.SocketNetwork`
untouched.  Normalized schedule time therefore maps onto the run horizon
in *virtual* units, and the :class:`~repro.net.services.NetSimulator`
maps virtual time onto the wall clock.

What is genuinely transport-level lives here:

* the send-side **decision** — the shared policy function of
  :mod:`repro.sim.faultpolicy`, evaluated against the live (window-
  mutated) network parameters with the run's seeded RNG, exactly as the
  simulated network evaluates it (the delivery-side one is
  ``Network._deliver``'s, which the socket network inherits);
* the **crash watcher** — a task polling ``process.crashed`` flags and
  actuating them for real: a crashed node's endpoint is paused (server
  closed, connections aborted), a recovered node's endpoint rebinds its
  original port, and senders rediscover it through reconnect — which is
  what makes ``retry_crashed`` redelivery exercise an actual session
  resume instead of a simulated one.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.sim import faultpolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.services import SocketNetwork
    from repro.net.transport import TcpTransport

__all__ = ["ChaosProxy"]


class ChaosProxy:
    """Fault decisions + crash actuation for one socket-backed network."""

    def __init__(self, network: "SocketNetwork") -> None:
        self.network = network
        self._watch_task: asyncio.Task | None = None
        self._crashed_seen: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # policy decision (shared with the simulated backend)
    # ------------------------------------------------------------------
    def send_copies(self, kind: str) -> int:
        """Send-side loss/duplication decision for one message."""
        network = self.network
        return faultpolicy.send_copies(
            network.sim.rng,
            reliable=kind in network.reliable_kinds,
            drop_prob=network.drop_prob,
            dup_prob=network.dup_prob,
        )

    # ------------------------------------------------------------------
    # crash actuation
    # ------------------------------------------------------------------
    def start(self, transport: "TcpTransport") -> None:
        self._crashed_seen = {
            process.name: process.crashed for process in self.network.processes
        }
        self._watch_task = asyncio.create_task(self._watch(transport))

    def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            self._watch_task = None

    async def _watch(self, transport: "TcpTransport") -> None:
        """Actuate ``process.crashed`` transitions on the real transport.

        The flags themselves are flipped by the untouched
        :class:`~repro.sim.failure.FailureInjector` timers; this task
        turns each transition into endpoint teardown or restart.  The
        poll cadence bounds actuation lag at ``poll_interval`` wall
        seconds; delivery-time policy checks consult the flag directly,
        so the lag affects only how long sockets stay up, never whether
        a crashed node observes a message.
        """
        interval = self.network.sim.config.poll_interval
        while True:
            await asyncio.sleep(interval)
            for process in self.network.processes:
                before = self._crashed_seen.get(process.name, False)
                if process.crashed == before:
                    continue
                self._crashed_seen[process.name] = process.crashed
                if process.crashed:
                    transport.pause_node(process.name)
                else:
                    transport.resume_node(process.name)
