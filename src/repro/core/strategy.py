"""Coordination selection and synthesis (paper Section V-B).

Given an analysis result, :func:`choose_strategies` decides, for every
component that can produce consistency anomalies, between:

* a :class:`SealStrategy` — partition-local synchronization: the consumer
  buffers each partition of its order-sensitive inputs until it holds the
  partition's complete contents, which requires (a) a per-producer seal
  protocol and (b) a unanimous voting round across producers of the
  partition (skipped when each partition has a single producer).  Chosen
  whenever every order-sensitive path of the component rendezvouses only
  with streams sealed on a compatible key.
* an :class:`OrderStrategy` — a total order over the component's inputs,
  established by a sequencing service (the paper uses Zookeeper); always
  applicable, but globally coordinated and therefore expensive.  The
  same class describes a deployment that *imposes* the sequencer up
  front (:func:`ordered_plan`); there is no second order type.

The entries of the resulting :class:`CoordinationPlan` are what
:mod:`repro.bloom.rewrite` installs — on the consuming nodes and in the
producing processes — and the plan can be rendered for human review.

See ``docs/architecture.md`` for the full paper-section-to-module map.
"""

from __future__ import annotations

import dataclasses

from repro.core.analysis import AnalysisResult
from repro.core.annotations import STAR
from repro.core.fd import compatible
from repro.core.labels import Async, Label, LabelKind

__all__ = [
    "SealStrategy",
    "OrderStrategy",
    "NoCoordination",
    "CoordinationPlan",
    "choose_strategies",
    "ordered_plan",
    "label_under_ordering",
]


@dataclasses.dataclass(frozen=True)
class SealStrategy:
    """Partition-local coordination for one component.

    ``partitions`` maps each coordinated input stream to the seal key that
    guards it; ``gates`` records the order-sensitive gates being protected.
    """

    component: str
    partitions: tuple[tuple[str, frozenset[str]], ...]
    gates: tuple[frozenset[str], ...]

    kind = "seal"

    def describe(self) -> str:
        parts = ", ".join(
            f"{stream} sealed on {{{','.join(sorted(key))}}}"
            for stream, key in self.partitions
        )
        return f"seal-based coordination at {self.component}: {parts}"


@dataclasses.dataclass(frozen=True)
class OrderStrategy:
    """Total-order delivery of a component's input streams.

    ``streams`` lists the input streams routed through the ordering
    service.  The analyzer recommends it as the fallback when sealing
    does not apply, and ``reason`` says why; a deployment that imposes
    the sequencer up front (:func:`ordered_plan`, the paper's
    always-applicable Section V-B2 strategy) has no such verdict to
    report and names the sequencer ``topic`` its inputs ride instead.
    Whether the mechanism is *installed* is the deployment's decision
    (``StrategySpec.ordered``), not a second type.
    """

    component: str
    streams: tuple[str, ...]
    reason: str = ""
    topic: str = ""

    @property
    def kind(self) -> str:
        return "order" if self.reason else "ordered"

    def describe(self) -> str:
        streams = ", ".join(self.streams)
        if self.reason:
            return (
                f"ordered delivery at {self.component} for streams "
                f"{streams} ({self.reason})"
            )
        topic = f" on topic {self.topic!r}" if self.topic else ""
        return (
            f"sequencer-ordered delivery installed at {self.component} for "
            f"streams {streams}{topic}"
        )


@dataclasses.dataclass(frozen=True)
class NoCoordination:
    """The component is confluent (or already protected): nothing to do."""

    component: str

    kind = "none"

    def describe(self) -> str:
        return f"no coordination required at {self.component}"


Strategy = SealStrategy | OrderStrategy | NoCoordination


@dataclasses.dataclass
class CoordinationPlan:
    """Per-component coordination decisions for one dataflow."""

    strategies: dict[str, Strategy]

    @property
    def coordinated_components(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, strategy in self.strategies.items()
            if not isinstance(strategy, NoCoordination)
        )

    @property
    def uses_global_order(self) -> bool:
        """True when any component relies on the ordering service."""
        return any(isinstance(s, OrderStrategy) for s in self.strategies.values())

    def strategy_for(self, component: str) -> Strategy:
        return self.strategies.get(component, NoCoordination(component))

    def describe(self) -> str:
        lines = [s.describe() for s in self.strategies.values()]
        return "\n".join(lines) if lines else "no coordination required"


def choose_strategies(result: AnalysisResult) -> CoordinationPlan:
    """Select a coordination strategy for every component of a dataflow."""
    strategies: dict[str, Strategy] = {}
    dataflow = result.dataflow
    for component in dataflow.components:
        strategies[component.name] = _strategy_for_component(result, component.name)
    return CoordinationPlan(strategies)


def _strategy_for_component(result: AnalysisResult, name: str) -> Strategy:
    dataflow = result.dataflow
    component = dataflow.component(name)

    if all(path.annotation.confluent for path in component.paths):
        return NoCoordination(name)

    # The component is order-sensitive: some coordination mechanism is
    # required (either the seal protocol that already protects it, or
    # ordered delivery).  Sealing applies when every order-sensitive path
    # has a known gate and every sealed stream it rendezvouses with — any
    # input stream of the component — carries a compatible key.
    gates: list[frozenset[str]] = []
    sealable = True
    reason = ""
    for path in component.paths:
        if path.annotation.confluent:
            continue
        gate = path.annotation.gate
        if gate is STAR:
            sealable = False
            reason = f"path {path.from_iface}->{path.to_iface} has unknown gate (*)"
            break
        assert isinstance(gate, frozenset)
        gates.append(gate)

    seal_partitions: list[tuple[str, frozenset[str]]] = []
    if sealable:
        # each distinct gate once: a component with many paths over one gate
        # checks each input stream once, not once per path
        distinct_gates = set(gates)
        for stream in dataflow.streams_into(name):
            key = _seal_key_of(result, stream.name)
            if key is not None and all(
                compatible(gate, key, result.fds) for gate in distinct_gates
            ):
                seal_partitions.append((stream.name, key))
        if not seal_partitions:
            sealable = False
            reason = "no input stream is sealed on a key compatible with " + ", ".join(
                "{" + ",".join(sorted(g)) + "}" for g in gates
            )

    if sealable:
        # Sealing only suffices when it actually protected the analysis:
        # no tainted state and no unprotected reads remain.
        for out_iface in component.output_interfaces:
            record = result.output(name, out_iface)
            if record.tainted or record.unprotected_gates:
                sealable = False
                reason = (
                    f"output {out_iface} still exhibits "
                    f"{'tainted state' if record.tainted else 'unprotected reads'}"
                )
                break

    if sealable:
        return SealStrategy(name, tuple(sorted(seal_partitions)), tuple(gates))

    streams = tuple(sorted({s.name for s in dataflow.streams_into(name)}))
    return OrderStrategy(name, streams, reason or "sealing not applicable")


def ordered_plan(result: AnalysisResult, *, topic: str = "") -> CoordinationPlan:
    """The plan of a deployment that imposes ordering up front.

    Every component with at least one order-sensitive path gets an
    :class:`OrderStrategy` over its input streams; confluent components
    need nothing.  This is the paper's always-applicable strategy: unlike
    :func:`choose_strategies` it never needs a compatible seal key, at
    the price of funneling the streams through the sequencer's global
    serialization point.
    """
    strategies: dict[str, Strategy] = {}
    dataflow = result.dataflow
    for component in dataflow.components:
        if all(path.annotation.confluent for path in component.paths):
            strategies[component.name] = NoCoordination(component.name)
            continue
        streams = tuple(sorted({s.name for s in dataflow.streams_into(component.name)}))
        strategies[component.name] = OrderStrategy(component.name, streams, topic=topic)
    return CoordinationPlan(strategies)


def label_under_ordering(label: Label) -> Label:
    """The residual sink label once ordered delivery is installed.

    A sequencer makes every replica apply one total order, so the
    cross-instance and cross-run anomalies (``Run``/``Inst``/``Diverge``)
    collapse; what remains is ``Async`` — contents deterministic *given
    the recorded order*, which itself varies run to run.  Labels at or
    below ``Async`` are already stronger and pass through unchanged.
    """
    if label.severity > Async().severity:
        return Async()
    return label


def _seal_key_of(result: AnalysisResult, stream_name: str) -> frozenset[str] | None:
    stream = result.dataflow.stream(stream_name)
    if stream.seal_key:
        return stream.seal_key
    label = result.stream_labels.get(stream_name)
    if label is not None and label.kind is LabelKind.SEAL:
        return label.key
    return None
