"""Fault envelopes: each app's declared fault-tolerance assumptions.

A label analysis only promises soundness *within* the failure model the
deployment was built for.  The word count heals anything batch replay
can replay; the ad network has no retransmit layer, so message loss is
simply outside its model; the TCP-backed query apps tolerate a replica
crash only because sessions are re-established after the peer restarts.
Handing such an app a schedule outside those assumptions and calling the
resulting anomaly "unsound" would indict the analysis for a promise it
never made.

:class:`FaultEnvelope` makes the assumptions explicit and checkable: an
allowed set of fault kinds, an optional crash-restart deadline (a crash
whose recovery lands after it is a crash-*without*-restart), and
probability ceilings for the loss/duplication windows.  The campaign
checks every cell's schedule against its app's envelope
(:attr:`repro.api.AuditProfile.envelope`) and classifies out-of-envelope
cells as ``out-of-envelope`` — reported, but never counted as unsound.
The search layer uses the same envelope generatively: composite
schedules are drawn from the allowed kinds only, so every counterexample
it shrinks is an in-envelope one the analysis must answer for.
"""

from __future__ import annotations

import dataclasses
import math

from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    fault_kind,
)
from repro.errors import SimulationError

__all__ = [
    "FAULT_KINDS",
    "FaultEnvelope",
    "cell_status",
    "order_only_envelope",
    "reliable_sessions_envelope",
    "replay_envelope",
]

FAULT_KINDS = ("crash", "loss", "duplicate", "partition", "reorder")

# the campaign's cell taxonomy: sound / unsound applies only inside the
# envelope; outside it the verdict is withheld
STATUS_SOUND = "sound"
STATUS_UNSOUND = "unsound"
STATUS_OUT_OF_ENVELOPE = "out-of-envelope"


@dataclasses.dataclass(frozen=True)
class FaultEnvelope:
    """One app's fault-tolerance assumptions, as a checkable value.

    ``faults`` is the set of fault kinds the app claims to tolerate
    (subset of :data:`FAULT_KINDS`).  ``crash_restart_by`` — meaningful
    only when crashes are allowed — is the *normalized* time (same [0, 1]
    convention as schedules) by which a crashed process must be back: a
    crash window ending later is a crash-without-restart and therefore
    out of envelope.  ``max_loss_prob`` / ``max_dup_prob`` bound the
    loss/duplication windows the app's delivery layer was designed for.
    """

    name: str
    faults: frozenset[str]
    crash_restart_by: float | None = None
    max_loss_prob: float = 1.0
    max_dup_prob: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", frozenset(self.faults))
        unknown = self.faults - set(FAULT_KINDS)
        if unknown:
            raise SimulationError(
                f"envelope {self.name!r} names unknown fault kinds "
                f"{sorted(unknown)}; have {list(FAULT_KINDS)}"
            )
        # checked here: NaN fails every comparison, so a NaN ceiling or
        # deadline would admit every schedule
        for field in ("max_loss_prob", "max_dup_prob"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(
                    f"envelope {self.name!r}: {field} must be within [0, 1], got {value}"
                )
        deadline = self.crash_restart_by
        if deadline is not None and not 0.0 <= deadline < math.inf:
            raise SimulationError(
                f"envelope {self.name!r}: crash_restart_by must be finite "
                f"and >= 0, got {deadline}"
            )

    def violations(self, schedule: FaultSchedule) -> tuple[str, ...]:
        """Why ``schedule`` falls outside this envelope (empty = inside).

        ``schedule`` is checked in normalized time, i.e. *before* the
        harness scales it to the app's horizon — the same convention
        ``crash_restart_by`` is declared in.
        """
        found: list[str] = []
        for fault in schedule.faults:
            kind = fault_kind(fault)
            if kind not in self.faults:
                found.append(
                    f"{kind} outside envelope {self.name!r} "
                    f"(allows {sorted(self.faults)}): {fault!r}"
                )
                continue
            if (
                isinstance(fault, Crash)
                and self.crash_restart_by is not None
                and fault.end > self.crash_restart_by
            ):
                found.append(
                    f"crash-without-restart: recovery at {fault.end:g} is "
                    f"after the {self.crash_restart_by:g} restart deadline: "
                    f"{fault!r}"
                )
            elif isinstance(fault, Loss) and fault.drop_prob > self.max_loss_prob:
                found.append(
                    f"loss probability {fault.drop_prob:g} exceeds the "
                    f"envelope ceiling {self.max_loss_prob:g}: {fault!r}"
                )
            elif isinstance(fault, Duplicate) and fault.dup_prob > self.max_dup_prob:
                found.append(
                    f"duplication probability {fault.dup_prob:g} exceeds the "
                    f"envelope ceiling {self.max_dup_prob:g}: {fault!r}"
                )
        return tuple(found)

    def to_dict(self) -> dict:
        """The JSON-able view (for reports and ``blazes apps --json``)."""
        return {
            "name": self.name,
            "faults": sorted(self.faults),
            "crash_restart_by": self.crash_restart_by,
            "max_loss_prob": self.max_loss_prob,
            "max_dup_prob": self.max_dup_prob,
        }


def cell_status(sound: bool, violations: tuple[str, ...] | list[str]) -> str:
    """Fold one cell's soundness and envelope check into its status.

    Out-of-envelope takes precedence: a schedule the app never claimed to
    tolerate yields no verdict on the analysis either way.
    """
    if violations:
        return STATUS_OUT_OF_ENVELOPE
    return STATUS_SOUND if sound else STATUS_UNSOUND


# ----------------------------------------------------------------------
# the canonical envelopes the reference apps declare
# ----------------------------------------------------------------------
def replay_envelope() -> FaultEnvelope:
    """Replay-based fault tolerance: the full menu, but crashes restart."""
    return FaultEnvelope(
        "replay",
        frozenset(FAULT_KINDS),
        crash_restart_by=1.0,
        description=(
            "batch replay heals loss, duplication, partitions, and "
            "crash-restart; a process that never comes back is outside "
            "the model"
        ),
    )


def order_only_envelope() -> FaultEnvelope:
    """No retransmit layer: only order-perturbing faults are in scope."""
    return FaultEnvelope(
        "order-only",
        frozenset({"reorder", "duplicate"}),
        description=(
            "no retransmit layer: reordering and duplication are in "
            "scope, loss/crash/partition destroy messages the app "
            "never promised to recover"
        ),
    )


def reliable_sessions_envelope() -> FaultEnvelope:
    """TCP-backed sessions: timing faults, plus crash-with-restart.

    Sessions are re-established after a peer restart (the
    ``reliable_sessions`` runner flag), so a crash is tolerated exactly
    when the process is back before end of run; partitions delay rather
    than destroy traffic.
    """
    return FaultEnvelope(
        "reliable-sessions",
        frozenset({"reorder", "duplicate", "crash", "partition"}),
        crash_restart_by=1.0,
        description=(
            "TCP-backed sessions re-established on restart: faults may "
            "perturb delivery order and timing, never durability"
        ),
    )
