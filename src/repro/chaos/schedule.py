"""The fault-schedule DSL: declarative, composable, app-agnostic.

A :class:`FaultSchedule` is an immutable value describing *what goes wrong
when*, in normalized time (fractions of a run's horizon) and in terms of
symbolic *roles* ("worker", "source", "client") rather than concrete
process names.  At run time the campaign scales the schedule to the app's
virtual-time horizon and compiles it onto a
:class:`repro.sim.failure.FailureInjector`, resolving roles through the
app harness.  The same "crash worker 0 at 20% for 30%" schedule therefore
applies to a Storm count task, a Bloom reporting replica, or a KVS store
node.

Primitives mirror the injector: :class:`Crash` (crash/recover),
:class:`Loss` and :class:`Duplicate` (probability windows),
:class:`Partition` (severed links), :class:`Reorder` (latency-jitter
bursts).  Schedules compose with ``+`` and transform with
:meth:`FaultSchedule.scaled` / :meth:`FaultSchedule.with_intensity`.
Every fault validates its window at construction time (a fault that
would arm in the past raises :class:`~repro.errors.SimulationError`
where it is built), and schedules round-trip through plain dicts
(:func:`schedule_to_dict` / :func:`schedule_from_dict`) so the search
layer can ship them through JSON scenario parameters.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.errors import SimulationError
from repro.sim.failure import FailureInjector, check_fault

__all__ = [
    "Crash",
    "Duplicate",
    "FaultSchedule",
    "Loss",
    "Partition",
    "Reorder",
    "ResolveRole",
    "baseline",
    "crash_restart",
    "dup_burst",
    "fault_from_dict",
    "fault_kind",
    "fault_to_dict",
    "loss_burst",
    "reorder_burst",
    "schedule_from_dict",
    "schedule_to_dict",
    "split_link",
]

# role resolution: (role, index) -> concrete process name
ResolveRole = Callable[[str, int], str]


def _check(fault, **values) -> None:
    """Reject faults that would arm in the past, run backwards, or carry a
    value the injector would refuse (:func:`repro.sim.failure.check_fault`).

    Construction-time validation (``rescaled`` goes through
    ``dataclasses.replace``, which re-runs ``__post_init__``): a fault the
    injector would schedule before t=0 raises here, not at arm time in a
    sim kernel or silently clamped by the socket backend, far from the
    buggy call site.  A NaN fails here too, including one read from a
    JSON spec.
    """
    if fault.at < 0:
        raise SimulationError(
            f"fault begins before t=0 (negative offset?): {fault!r}"
        )
    try:
        check_fault(fault.at, fault.duration, **values)
    except SimulationError as exc:
        raise SimulationError(f"{exc}: {fault!r}") from None


class _Window:
    """The window ``[at, at + duration)`` every fault occupies.

    Field-less on purpose: each fault declares ``at`` and ``duration``
    among its own fields, so field order — and with it ``asdict`` key
    order, ``schedule_digest`` and every cache key — stays the fault's.
    """

    def rescaled(self, factor: float):
        return dataclasses.replace(self, at=self.at * factor, duration=self.duration * factor)

    @property
    def end(self) -> float:
        return self.at + self.duration


@dataclasses.dataclass(frozen=True)
class Crash(_Window):
    """Crash one process at ``at``, recover ``duration`` later."""

    role: str
    index: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        _check(self)

    def compile(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        injector.crash_for(resolve(self.role, self.index), self.at, self.duration)

    def with_intensity(self, lam: float) -> "Crash":
        return dataclasses.replace(self, duration=self.duration * lam)


@dataclasses.dataclass(frozen=True)
class Loss(_Window):
    """Elevated message-loss probability during a window."""

    at: float
    duration: float
    drop_prob: float

    def __post_init__(self) -> None:
        _check(self, prob=("drop_prob", self.drop_prob))

    def compile(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        injector.loss_window(self.at, self.duration, self.drop_prob)

    def with_intensity(self, lam: float) -> "Loss":
        return dataclasses.replace(self, drop_prob=self.drop_prob * lam)


@dataclasses.dataclass(frozen=True)
class Duplicate(_Window):
    """Elevated message-duplication probability during a window."""

    at: float
    duration: float
    dup_prob: float

    def __post_init__(self) -> None:
        _check(self, prob=("dup_prob", self.dup_prob))

    def compile(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        injector.duplicate_window(self.at, self.duration, self.dup_prob)

    def with_intensity(self, lam: float) -> "Duplicate":
        return dataclasses.replace(self, dup_prob=self.dup_prob * lam)


@dataclasses.dataclass(frozen=True)
class Partition(_Window):
    """Sever the link between two role-addressed processes for a window."""

    src_role: str
    src_index: int
    dst_role: str
    dst_index: int
    at: float
    duration: float
    symmetric: bool = True

    def __post_init__(self) -> None:
        _check(self)

    def compile(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        injector.partition(
            resolve(self.src_role, self.src_index),
            resolve(self.dst_role, self.dst_index),
            self.at,
            self.duration,
            symmetric=self.symmetric,
        )

    def with_intensity(self, lam: float) -> "Partition":
        return dataclasses.replace(self, duration=self.duration * lam)


@dataclasses.dataclass(frozen=True)
class Reorder(_Window):
    """Inflate latency jitter by ``factor`` during a window (reorder burst)."""

    at: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        _check(self, factor=self.factor)

    def compile(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        injector.reorder_window(self.at, self.duration, self.factor)

    def with_intensity(self, lam: float) -> "Reorder":
        # interpolate toward the neutral jitter multiplier 1, not 0: a
        # factor of 1 leaves latency untouched, so lam=0 is a no-op
        return dataclasses.replace(self, factor=1.0 + (self.factor - 1.0) * lam)


Fault = Crash | Loss | Duplicate | Partition | Reorder

_FAULT_TYPES: dict[str, type] = {
    "crash": Crash,
    "loss": Loss,
    "duplicate": Duplicate,
    "partition": Partition,
    "reorder": Reorder,
}


def fault_kind(fault: Fault) -> str:
    """The canonical kind string of a fault primitive (``"crash"``, ...)."""
    return type(fault).__name__.lower()


def fault_to_dict(fault: Fault) -> dict:
    """One fault as a JSON-able mapping (``kind`` + its fields)."""
    return {"kind": fault_kind(fault), **dataclasses.asdict(fault)}


def fault_from_dict(data: dict) -> Fault:
    """Rebuild a fault primitive from :func:`fault_to_dict` output."""
    fields = dict(data)
    kind = fields.pop("kind", None)
    try:
        cls = _FAULT_TYPES[kind]
    except KeyError:
        raise SimulationError(
            f"unknown fault kind {kind!r}; have {sorted(_FAULT_TYPES)}"
        ) from None
    return cls(**fields)


def _is_noop(fault: Fault) -> bool:
    """Faults that cannot perturb a run (dropped by ``with_intensity``)."""
    if isinstance(fault, (Loss, Duplicate)):
        prob = fault.drop_prob if isinstance(fault, Loss) else fault.dup_prob
        return prob <= 0.0 or fault.duration <= 0.0
    if isinstance(fault, Reorder):
        return fault.factor <= 1.0 or fault.duration <= 0.0
    return fault.duration <= 0.0


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """An immutable, composable set of timed faults.

    Times are conventionally *normalized* to ``[0, 1]`` and scaled to an
    app's horizon with :meth:`scaled` just before :meth:`apply`; nothing
    enforces that convention, so absolute-time schedules work too.
    """

    name: str
    faults: tuple[Fault, ...] = ()

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return FaultSchedule(f"{self.name}+{other.name}", self.faults + other.faults)

    def scaled(self, factor: float) -> "FaultSchedule":
        """Multiply every ``at``/``duration`` by ``factor``."""
        if factor <= 0:
            raise SimulationError(f"schedule scale factor must be > 0, got {factor}")
        return FaultSchedule(
            self.name, tuple(f.rescaled(factor) for f in self.faults)
        )

    def with_intensity(self, lam: float) -> "FaultSchedule":
        """The same schedule at fractional intensity ``lam`` in [0, 1].

        Probability windows scale their probability, crash/partition
        windows their duration, and reorder bursts interpolate their
        jitter factor toward the neutral 1 — so ``with_intensity(1)`` is
        the schedule itself and ``with_intensity(0)`` is fault-free.
        Faults rendered inert (zero probability, zero duration, unit
        jitter) are dropped, which keeps the lam=0 endpoint identical to
        :func:`baseline` for the severity-frontier bisection.
        """
        if not 0.0 <= lam <= 1.0:
            raise SimulationError(
                f"schedule intensity must be within [0, 1], got {lam}"
            )
        faults = tuple(
            scaled
            for fault in self.faults
            if not _is_noop(scaled := fault.with_intensity(lam))
        )
        return FaultSchedule(self.name, faults)

    @property
    def horizon(self) -> float:
        """Virtual time by which every fault has begun and ended."""
        return max((f.end for f in self.faults), default=0.0)

    @property
    def roles(self) -> frozenset[str]:
        """Every symbolic role the schedule targets (for harness checks)."""
        names: set[str] = set()
        for fault in self.faults:
            for attr in ("role", "src_role", "dst_role"):
                value = getattr(fault, attr, None)
                if value is not None:
                    names.add(value)
        return frozenset(names)

    def apply(self, injector: FailureInjector, resolve: ResolveRole) -> None:
        """Compile every fault onto ``injector``, resolving roles."""
        for fault in self.faults:
            fault.compile(injector, resolve)

    def describe(self) -> str:
        if not self.faults:
            return f"{self.name}: no faults"
        lines = [f"{self.name}:"]
        for fault in self.faults:
            lines.append(f"  {fault!r}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON-able view of this schedule (see :func:`schedule_to_dict`)."""
        return schedule_to_dict(self)


def schedule_to_dict(schedule: FaultSchedule) -> dict:
    """A schedule as a JSON-able mapping.

    This is how searched/composite schedules travel inside scenario
    parameters: ``BENCH_*.json`` rows stay serializable and the pool's
    cell function rebuilds the schedule on the other side.
    """
    return {
        "name": schedule.name,
        "faults": [fault_to_dict(fault) for fault in schedule.faults],
    }


def schedule_from_dict(data: dict) -> FaultSchedule:
    """Rebuild a :class:`FaultSchedule` from :func:`schedule_to_dict`."""
    return FaultSchedule(
        str(data["name"]),
        tuple(fault_from_dict(fault) for fault in data.get("faults", ())),
    )


# ----------------------------------------------------------------------
# the canonical schedule library (normalized time)
# ----------------------------------------------------------------------
def baseline() -> FaultSchedule:
    """No injected faults: only the network's inherent reordering."""
    return FaultSchedule("baseline")


def crash_restart(
    role: str = "worker", index: int = 0, *, at: float = 0.15, duration: float = 0.3
) -> FaultSchedule:
    """Crash one process mid-run and bring it back."""
    return FaultSchedule("crash-restart", (Crash(role, index, at, duration),))


def loss_burst(
    *, at: float = 0.1, duration: float = 0.25, drop_prob: float = 0.4
) -> FaultSchedule:
    """A transient spike of message loss."""
    return FaultSchedule("loss-burst", (Loss(at, duration, drop_prob),))


def dup_burst(
    *, at: float = 0.1, duration: float = 0.4, dup_prob: float = 0.5
) -> FaultSchedule:
    """A transient spike of at-least-once duplication."""
    return FaultSchedule("dup-burst", (Duplicate(at, duration, dup_prob),))


def reorder_burst(
    *, at: float = 0.05, duration: float = 0.6, factor: float = 8.0
) -> FaultSchedule:
    """A sustained latency-jitter inflation: heavy reordering, no loss."""
    return FaultSchedule("reorder-burst", (Reorder(at, duration, factor),))


def split_link(
    src_role: str = "source",
    src_index: int = 0,
    dst_role: str = "worker",
    dst_index: int = 0,
    *,
    at: float = 0.15,
    duration: float = 0.3,
) -> FaultSchedule:
    """Partition one producer/consumer pair, then heal."""
    return FaultSchedule(
        "split-link",
        (Partition(src_role, src_index, dst_role, dst_index, at, duration),),
    )
