"""The unguarded message hop: every send and every delivery asks the policy.

:class:`ReferenceNetwork` is :class:`repro.sim.network.Network` with the
``send`` / ``_deliver`` bodies it had before they learned to skip
:mod:`repro.sim.faultpolicy` calls whose answer is already determined.
It is the oracle of ``tests/sim/test_network_equivalence.py``: a guard is
only legal if this class and the production one cannot be told apart —
same deliveries, same counters, same RNG stream.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim import faultpolicy
from repro.sim.network import Message, Network

__all__ = ["ReferenceNetwork"]


class ReferenceNetwork(Network):
    """:class:`Network` consulting the fault policy unconditionally."""

    def send(self, src: str, dst: str, kind: str, payload: Any) -> None:
        if dst not in self._processes:
            raise SimulationError(f"message to unknown process {dst!r}")
        self.sent += 1
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.note_send(kind, payload)
        copies = faultpolicy.send_copies(
            self.sim.rng,
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
            msg = Message(src, dst, kind, payload, self.sim.now, self._uid)
            delay = self.latency.sample(self.sim.rng)
            self.sim.post(delay, self._deliver, msg)

    def _deliver(self, msg: Message, attempt: int = 0) -> None:
        process = self._processes.get(msg.dst)
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
        for observer in self.sim.observers:
            observer(msg)
        process.recv(msg)
