"""The reconciliation procedure of paper Figure 10.

Given the set of labels accumulated for one output interface, reconciliation
resolves the internal labels:

* ``Taint`` in the label set adds ``Diverge`` when the component is
  replicated, otherwise ``Run``;
* an *unprotected* ``NDRead[gate]`` adds ``Inst`` when replicated,
  otherwise ``Run``;
* a *protected* ``NDRead[gate]`` — one where every other label in the set
  is either the same ``NDRead`` or a ``Seal[key]`` with
  ``compatible(gate, key)`` — contributes only ``Async`` (deterministic
  contents once the partitions are complete).

Finally the merge step returns the highest-severity non-internal label.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from repro.core.fd import FDSet, compatible
from repro.core.labels import (
    Async,
    Diverge,
    Inst,
    Label,
    LabelKind,
    Run,
    merge_labels,
)

__all__ = ["ReconciliationResult", "is_protected", "reconcile"]


@dataclasses.dataclass(frozen=True, slots=True)
class ReconciliationResult:
    """Outcome of reconciling one output interface.

    ``labels`` is the input label multiset (deduplicated), ``added`` the
    labels introduced by reconciliation, ``merged`` the final output stream
    label, and ``notes`` a human-readable trace of each decision.
    """

    labels: frozenset[Label]
    added: frozenset[Label]
    merged: Label
    notes: tuple[str, ...]

    @property
    def tainted(self) -> bool:
        """True when component state may be corrupted by input orders."""
        return any(l.kind is LabelKind.TAINT for l in self.labels)

    @property
    def unprotected_gates(self) -> frozenset[frozenset[str]]:
        """Gates of ``NDRead`` labels that no compatible seal protects."""
        gates = set()
        for label in self.labels:
            if label.kind is LabelKind.NDREAD and not is_protected(
                label, self.labels, self._fds
            ):
                assert label.key is not None
                gates.add(label.key)
        return frozenset(gates)

    # The FD set is needed to re-evaluate protection lazily; stored as a
    # private field excluded from equality.
    _fds: FDSet = dataclasses.field(
        default_factory=FDSet, compare=False, repr=False
    )


def is_protected(ndread: Label, labels: Iterable[Label], fds: FDSet | None = None) -> bool:
    """Paper Figure 10 ``protected`` predicate for one ``NDRead`` label.

    ``protected(NDRead[gate])`` holds when a seal compatible with ``gate``
    is among the labels and no label contradicts the partition barrier.
    Relative to the paper's formula — every label is the ``NDRead`` itself
    or a compatible seal — this implementation also tolerates ``Async``
    co-labels: an ``Async`` label means deterministic stream contents,
    which cannot re-introduce nondeterminism into a partition that is
    processed only when complete.  (White-box extraction produces such
    ``Async`` co-labels for confluent write paths; see DESIGN.md.)
    Incompatible seals, other internal labels, and any label carrying
    nondeterministic contents still defeat protection.
    """
    if ndread.kind is not LabelKind.NDREAD:
        raise ValueError(f"is_protected expects an NDRead label, got {ndread}")
    fds = fds if fds is not None else FDSet()
    assert ndread.key is not None
    saw_compatible_seal = False
    for label in labels:
        if label == ndread:
            continue
        if label.kind is LabelKind.SEAL:
            assert label.key is not None
            if compatible(ndread.key, label.key, fds):
                saw_compatible_seal = True
                continue
            return False
        if label.kind is LabelKind.ASYNC:
            continue
        return False
    return saw_compatible_seal


def reconcile(
    labels: Iterable[Label], *, replicated: bool, fds: FDSet | None = None
) -> ReconciliationResult:
    """Run Figure 10 reconciliation and the final merge for one interface."""
    fds = fds if fds is not None else FDSet()
    label_set = frozenset(labels)
    added: set[Label] = set()
    notes: list[str] = []

    if any(l.kind is LabelKind.TAINT for l in label_set):
        verdict = Diverge() if replicated else Run()
        added.add(verdict)
        notes.append(
            f"Taint in labels: component state may be corrupted -> {verdict}"
            f" ({'replicated' if replicated else 'single instance'})"
        )

    # sorted only so that `notes` reads the same on every run: each verdict
    # depends on the whole set (`is_protected`), so no label depends on it
    for label in sorted(label_set, key=str):
        if label.kind is not LabelKind.NDREAD:
            continue
        if is_protected(label, label_set, fds):
            added.add(Async())
            notes.append(
                f"{label} is protected by compatible seals -> contributes Async"
            )
        else:
            verdict = Inst() if replicated else Run()
            added.add(verdict)
            notes.append(
                f"{label} is unprotected -> {verdict}"
                f" ({'replicated' if replicated else 'single instance'})"
            )

    merged = merge_labels(label_set | added)
    return ReconciliationResult(
        labels=label_set,
        added=frozenset(added),
        merged=merged,
        notes=tuple(notes),
        _fds=fds,
    )
