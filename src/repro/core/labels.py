"""Stream labels and the label severity order (paper Figure 8).

A *label* describes the worst consistency anomaly that a stream instance may
exhibit:

===========  ========  =====================================================
label        severity  meaning
===========  ========  =====================================================
``NDRead``   0         internal: transient nondeterministic read contents
``Taint``    0         internal: component state corrupted by input orders
``Seal``     1         stream is punctuated on a key (deterministic batches)
``Async``    2         deterministic contents, nondeterministic order
``Run``      3         cross-run nondeterminism (breaks replay)
``Inst``     4         cross-instance nondeterminism (replicas disagree)
``Diverge``  5         permanent replica divergence
===========  ========  =====================================================

``NDRead`` and ``Taint`` are used during inference and reconciliation but are
never reported as the label of an output stream.  ``NDRead`` carries the
partition *gate* of the order-sensitive path that produced it and ``Seal``
carries the punctuation *key*; both are attribute sets.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterable

__all__ = [
    "LabelKind",
    "Label",
    "NDRead",
    "Taint",
    "Seal",
    "Async",
    "Run",
    "Inst",
    "Diverge",
    "merge_labels",
    "max_label",
]


class LabelKind(enum.Enum):
    """The seven stream-label kinds of paper Figure 8."""

    NDREAD = "NDRead"
    TAINT = "Taint"
    SEAL = "Seal"
    ASYNC = "Async"
    RUN = "Run"
    INST = "Inst"
    DIVERGE = "Diverge"


_SEVERITY: dict[LabelKind, int] = {
    LabelKind.NDREAD: 0,
    LabelKind.TAINT: 0,
    LabelKind.SEAL: 1,
    LabelKind.ASYNC: 2,
    LabelKind.RUN: 3,
    LabelKind.INST: 4,
    LabelKind.DIVERGE: 5,
}

_INTERNAL: frozenset[LabelKind] = frozenset({LabelKind.NDREAD, LabelKind.TAINT})

_KEYED: frozenset[LabelKind] = frozenset({LabelKind.NDREAD, LabelKind.SEAL})


@dataclasses.dataclass(frozen=True, order=False)
class Label:
    """An immutable stream label, optionally subscripted by an attribute set.

    ``key`` holds the partition gate for ``NDRead`` labels and the
    punctuation key for ``Seal`` labels; it must be ``None`` for every other
    kind.
    """

    kind: LabelKind
    key: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind in _KEYED:
            if self.key is None or not self.key:
                raise ValueError(f"{self.kind.value} labels require a non-empty key")
            if not isinstance(self.key, frozenset):
                object.__setattr__(self, "key", frozenset(self.key))
        elif self.key is not None:
            raise ValueError(f"{self.kind.value} labels do not take a key")

    @property
    def severity(self) -> int:
        """Severity rank from paper Figure 8 (0 = internal, 5 = Diverge)."""
        return _SEVERITY[self.kind]

    @property
    def is_internal(self) -> bool:
        """True for labels the analysis never reports on output streams."""
        return self.kind in _INTERNAL

    def __str__(self) -> str:
        if self.key is not None:
            return f"{self.kind.value}[{','.join(sorted(self.key))}]"
        return self.kind.value

    __repr__ = __str__


def NDRead(*gate: str | Iterable[str]) -> Label:
    """Internal label: nondeterministic transient reads over ``gate``."""
    return Label(LabelKind.NDREAD, _flatten(gate))


def Taint() -> Label:
    """Internal label: component state tainted by nondeterministic orders."""
    return Label(LabelKind.TAINT)


def Seal(*key: str | Iterable[str]) -> Label:
    """Stream label: punctuated on attribute set ``key``."""
    return Label(LabelKind.SEAL, _flatten(key))


def Async() -> Label:
    """Stream label: deterministic contents, nondeterministic order."""
    return Label(LabelKind.ASYNC)


def Run() -> Label:
    """Stream label: cross-run nondeterministic contents."""
    return Label(LabelKind.RUN)


def Inst() -> Label:
    """Stream label: cross-instance nondeterministic contents."""
    return Label(LabelKind.INST)


def Diverge() -> Label:
    """Stream label: permanent replica divergence."""
    return Label(LabelKind.DIVERGE)


def _flatten(parts: tuple[str | Iterable[str], ...]) -> frozenset[str]:
    attrs: set[str] = set()
    for part in parts:
        if isinstance(part, str):
            attrs.add(part)
        else:
            attrs.update(part)
    return frozenset(attrs)


def max_label(labels: Iterable[Label]) -> Label:
    """Return the highest-severity label, breaking ties deterministically."""
    ordered = sorted(labels, key=lambda l: (l.severity, str(l)))
    if not ordered:
        raise ValueError("max_label() of an empty label set")
    return ordered[-1]


def merge_labels(labels: Iterable[Label]) -> Label:
    """Merge the labels of one output interface into a single stream label.

    This is the final step of the analysis for each output interface
    (Section V-A of the paper): internal labels are dropped and the
    highest-severity remaining label wins.  If only internal labels are
    present (which cannot happen after reconciliation) or the set is empty,
    the default ``Async`` label is returned, matching the paper's
    conservative default for asynchronous channels.
    """
    external = [l for l in labels if not l.is_internal]
    if not external:
        return Async()
    return max_label(external)
