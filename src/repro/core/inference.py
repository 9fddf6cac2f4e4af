"""The per-path inference rules of paper Figure 9.

Each rule consumes one input stream label and one path annotation and
produces a derived (possibly internal) label for the path's output:

====  ========================================  ================
rule  premises                                  conclusion
====  ========================================  ================
1     {Async, Run} input, ``OR[gate]`` path     ``NDRead[gate]``
2     {Async, Run} input, ``OW[gate]`` path     ``Taint``
3     ``Inst`` input, ``CW`` / ``OW`` path      ``Taint``
4     ``Seal[key]`` input, ``OW[gate]`` path,   ``Taint``
      ``not compatible(gate, key)``
(p)   otherwise                                 input preserved
====  ========================================  ================

Two refinements follow the Section VI case studies:

* a *compatible* sealed input consumed by an order-sensitive path yields
  ``Async`` output (the seal barrier makes the partition deterministic, but
  the output stream itself is not punctuated) while the seal is retained in
  the label set as protective evidence for reconciliation;
* an *incompatible* sealed input behaves like an unordered input, so an
  ``OR`` path derives ``NDRead[gate]`` (the ``OR`` analogue of rule 4).
"""

from __future__ import annotations

import dataclasses

from repro.core.annotations import PathAnnotation
from repro.core.fd import FDSet, compatible
from repro.core.labels import Async, Label, LabelKind, NDRead, Taint

__all__ = ["DerivationStep", "derive_path"]

RULE_PRESERVE = "p"
RULE_NDREAD = "1"
RULE_TAINT_ORDER = "2"
RULE_TAINT_INST = "3"
RULE_TAINT_SEAL = "4"
RULE_SEAL_CONSUMED = "s"


@dataclasses.dataclass(frozen=True, slots=True)
class DerivationStep:
    """One application of an inference rule on one path.

    ``rule`` is the Figure 9 rule number, ``"p"`` for preservation or
    ``"s"`` for consumption of a compatible seal.
    """

    input_label: Label
    annotation: PathAnnotation
    rule: str
    output_label: Label

    def __str__(self) -> str:
        return f"{self.input_label} {self.annotation} ({self.rule}) {self.output_label}"


def derive_path(
    label: Label, annotation: PathAnnotation, fds: FDSet | None = None
) -> list[DerivationStep]:
    """Apply the Figure 9 rules to one ``(input label, path)`` pair.

    Returns every derivation step the rules produce — usually one, but a
    compatible seal contributes both its consumed ``Async`` result and the
    retained ``Seal`` evidence, and an ``Inst`` input to an ``OR`` path
    contributes both the preserved ``Inst`` and the ``NDRead``.
    """
    fds = fds if fds is not None else FDSet()
    if label.is_internal:
        raise ValueError(
            f"internal label {label} cannot appear on a stream; inference "
            f"inputs must be external labels"
        )

    def step(rule: str, output: Label) -> DerivationStep:
        return DerivationStep(label, annotation, rule, output)

    if annotation.confluent:
        if label.kind is LabelKind.INST and annotation.stateful:
            return [step(RULE_TAINT_INST, Taint())]
        if label.kind is LabelKind.DIVERGE and annotation.stateful:
            # Divergent inputs permanently corrupt downstream state; the
            # Diverge label is preserved and the state is tainted.
            return [step(RULE_PRESERVE, label), step(RULE_TAINT_INST, Taint())]
        return [step(RULE_PRESERVE, label)]

    # Order-sensitive annotations: OR[gate] / OW[gate].
    gate = annotation.gate
    unordered = label.kind in (LabelKind.ASYNC, LabelKind.RUN)

    if label.kind is LabelKind.SEAL:
        assert label.key is not None
        if compatible(gate, label.key, fds):
            # The seal barrier makes per-partition evaluation deterministic;
            # the output is Async and the seal is retained as evidence.
            return [step(RULE_SEAL_CONSUMED, Async()), step(RULE_PRESERVE, label)]
        if annotation.stateful:
            return [step(RULE_TAINT_SEAL, Taint())]
        return [step(RULE_NDREAD, NDRead(gate_attrs(annotation)))]

    if unordered:
        if annotation.stateful:
            return [step(RULE_TAINT_ORDER, Taint())]
        return [step(RULE_NDREAD, NDRead(gate_attrs(annotation)))]

    if label.kind is LabelKind.INST:
        if annotation.stateful:
            return [step(RULE_TAINT_INST, Taint())]
        return [
            step(RULE_PRESERVE, label),
            step(RULE_NDREAD, NDRead(gate_attrs(annotation))),
        ]

    if label.kind is LabelKind.DIVERGE:
        steps = [step(RULE_PRESERVE, label)]
        if annotation.stateful:
            steps.append(step(RULE_TAINT_INST, Taint()))
        else:
            steps.append(step(RULE_NDREAD, NDRead(gate_attrs(annotation))))
        return steps

    raise AssertionError(f"unexpected input label {label}")  # pragma: no cover


def gate_attrs(annotation: PathAnnotation) -> frozenset[str]:
    """The gate of an order-sensitive annotation as an attribute set.

    An unknown gate (``OR*`` / ``OW*``) is represented by the reserved
    attribute ``"*"`` so the derived ``NDRead`` stays well-formed while
    remaining incompatible with every seal.
    """
    from repro.core.annotations import STAR

    if annotation.gate is STAR or annotation.gate is None:
        return frozenset({"*"})
    assert isinstance(annotation.gate, frozenset)
    return annotation.gate
