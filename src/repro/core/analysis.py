"""Whole-dataflow label analysis (paper Section V-A).

The analyzer walks the dataflow from its external inputs to its sinks:

1. every external input stream is labeled ``Async`` (the conservative
   default) or ``Seal[key]`` when the stream carries a seal annotation;
2. cycles are detected on the *interface graph* — the bipartite graph of
   input/output interfaces connected by component paths and streams — so
   that, as in the paper's footnote 3, the Cache self-edge forms a cycle
   while Cache and Report do not (Cache provides no path from ``r`` to
   ``q``);
3. each nontrivial cycle is collapsed to a single node carrying every
   distinct annotation among the cycle's member paths: a record entering
   the cycle may cross any of them, so its label is derived through each
   and the results reconcile together (never through one "worst" member:
   severity ignores the gate, so a tie would let member names decide);
4. for every output interface, in topological order over the collapsed
   graph, the Figure 9 inference rules derive per-path labels, the
   Figure 10 reconciliation procedure resolves internal labels, and the
   merge step assigns the highest-severity non-internal label to the
   interface's outgoing streams.

A component counts as *replicated* for reconciliation when it carries the
``Rep`` annotation or consumes a replicated stream: replicas of a stream
feed distinct physical consumers, so nondeterminism in its contents
manifests across those consumers' state (this is what makes the cache
diverge in the paper's POOR case study).  A *stream* is replicated when it
carries ``Rep`` or its own producer does — also when that producer sits in
a collapsed cycle: the cycle's members share one reconciliation, but each
stream leaving it takes the flag of the member that emits it.

The pass is linear in components + streams + paths: every adjacency
question is a lookup in the graph's index (:mod:`repro.core.graph`), asked
a bounded number of times per interface.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Iterable

from repro.core.annotations import PathAnnotation
from repro.core.fd import FDSet
from repro.core.graph import Component, Dataflow, Stream
from repro.core.inference import DerivationStep, derive_path
from repro.core.labels import Async, Label, LabelKind, Seal
from repro.core.reconciliation import ReconciliationResult, reconcile
from repro.errors import AnalysisError

__all__ = ["OutputAnalysis", "AnalysisResult", "analyze"]

_IN = "in"
_OUT = "out"
_Node = tuple[str, str, str]  # (direction, component, interface)


@dataclasses.dataclass(frozen=True, slots=True)
class OutputAnalysis:
    """Analysis record for one output interface of one component."""

    component: str
    interface: str
    steps: tuple[DerivationStep, ...]
    reconciliation: ReconciliationResult
    replicated: bool
    collapsed: bool = False

    @property
    def merged(self) -> Label:
        """The final label assigned to streams leaving this interface."""
        return self.reconciliation.merged

    @property
    def tainted(self) -> bool:
        return self.reconciliation.tainted

    @property
    def unprotected_gates(self) -> frozenset[frozenset[str]]:
        return self.reconciliation.unprotected_gates


@dataclasses.dataclass
class AnalysisResult:
    """The outcome of analyzing a whole dataflow."""

    dataflow: Dataflow
    fds: FDSet
    outputs: dict[tuple[str, str], OutputAnalysis]
    stream_labels: dict[str, Label]
    stream_rep: dict[str, bool]
    cycles: tuple[frozenset[str], ...]

    def label_of(self, stream_name: str) -> Label:
        """The derived label of a stream."""
        try:
            return self.stream_labels[stream_name]
        except KeyError:
            raise AnalysisError(f"no label derived for stream {stream_name!r}") from None

    def output(self, component: str, interface: str) -> OutputAnalysis:
        """The analysis record for one output interface."""
        try:
            return self.outputs[(component, interface)]
        except KeyError:
            raise AnalysisError(
                f"no analysis recorded for {component}.{interface}"
            ) from None

    @property
    def sink_labels(self) -> dict[str, Label]:
        """Labels of every external output stream."""
        return {
            s.name: self.stream_labels[s.name]
            for s in self.dataflow.external_outputs
        }

    @property
    def severity(self) -> int:
        """Worst severity over all sink streams (whole-program verdict)."""
        sinks = self.sink_labels
        labels = sinks.values() if sinks else self.stream_labels.values()
        return max((l.severity for l in labels), default=Async().severity)

    @property
    def is_consistent(self) -> bool:
        """True when no sink can exhibit replay/replica anomalies."""
        return self.severity <= Async().severity

    def components_needing_coordination(self) -> tuple[str, ...]:
        """Components with tainted state or unprotected ``NDRead`` gates."""
        return tuple(
            dict.fromkeys(
                component
                for (component, _iface), record in self.outputs.items()
                if record.tainted or record.unprotected_gates
            )
        )


def analyze(dataflow: Dataflow, fds: FDSet | None = None) -> AnalysisResult:
    """Derive labels for every stream and output interface of ``dataflow``."""
    dataflow.validate()
    fds = fds if fds is not None else FDSet()

    nodes, edges = _interface_graph(dataflow)
    sccs = _tarjan(nodes, edges)
    nontrivial = [scc for scc in sccs if len(scc) > 1]
    node_scc: dict[_Node, int] = {}
    for index, scc in enumerate(sccs):
        for node in scc:
            node_scc[node] = index

    stream_labels: dict[str, Label] = {}
    stream_rep: dict[str, bool] = {}
    for stream in dataflow.external_inputs:
        stream_labels[stream.name] = _external_label(stream)
        stream_rep[stream.name] = stream.rep

    outputs: dict[tuple[str, str], OutputAnalysis] = {}
    cycles = tuple(
        frozenset(node[1] for node in scc) for scc in nontrivial
    )

    order = _condensation_order(sccs, edges, node_scc)
    for scc_index in order:
        scc = sccs[scc_index]
        if len(scc) == 1:
            node = next(iter(scc))
            if node[0] == _OUT:
                _process_output(dataflow, node[1], node[2], fds, stream_labels, stream_rep, outputs)
        else:
            _process_cycle(dataflow, scc, fds, stream_labels, stream_rep, outputs)

    missing = [
        s.name for s in dataflow.streams if s.name not in stream_labels
    ]
    if missing:
        raise AnalysisError(f"streams left unlabeled: {missing}")

    return AnalysisResult(
        dataflow=dataflow,
        fds=fds,
        outputs=outputs,
        stream_labels=stream_labels,
        stream_rep=stream_rep,
        cycles=cycles,
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _external_label(stream: Stream) -> Label:
    if stream.label is not None:
        if stream.seal_key:
            raise AnalysisError(
                f"stream {stream.name!r}: give either a label override or a seal"
            )
        return stream.label
    if stream.seal_key:
        return Seal(stream.seal_key)
    return Async()


def _interface_graph(
    dataflow: Dataflow,
) -> tuple[list[_Node], dict[_Node, list[_Node]]]:
    nodes: list[_Node] = []
    edges: dict[_Node, list[_Node]] = {}

    def ensure(node: _Node) -> _Node:
        if node not in edges:
            edges[node] = []
            nodes.append(node)
        return node

    for component in dataflow.components:
        for path in component.paths:
            src = ensure((_IN, component.name, path.from_iface))
            dst = ensure((_OUT, component.name, path.to_iface))
            edges[src].append(dst)
    for stream in dataflow.streams:
        if stream.src is None or stream.dst is None:
            continue
        src = ensure((_OUT, stream.src[0], stream.src[1]))
        dst = ensure((_IN, stream.dst[0], stream.dst[1]))
        edges[src].append(dst)
    return nodes, edges


def _tarjan(
    nodes: Iterable[_Node], edges: dict[_Node, list[_Node]]
) -> list[frozenset[_Node]]:
    """Iterative Tarjan strongly-connected components."""
    index: dict[_Node, int] = {}
    lowlink: dict[_Node, int] = {}
    on_stack: set[_Node] = set()
    stack: list[_Node] = []
    counter = 0
    sccs: list[frozenset[_Node]] = []

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[_Node, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = counter
                lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = edges.get(node, [])
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                members: set[_Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    members.add(member)
                    if member == node:
                        break
                sccs.append(frozenset(members))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def _condensation_order(
    sccs: list[frozenset[_Node]],
    edges: dict[_Node, list[_Node]],
    node_scc: dict[_Node, int],
) -> list[int]:
    """Topological order over the condensation (Kahn's algorithm)."""
    successors: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    indegree: dict[int, int] = {i: 0 for i in range(len(sccs))}
    for src, children in edges.items():
        for dst in children:
            a, b = node_scc[src], node_scc[dst]
            if a != b and b not in successors[a]:
                successors[a].add(b)
                indegree[b] += 1
    ready = deque(sorted(i for i, deg in indegree.items() if deg == 0))
    order: list[int] = []
    while ready:
        current = ready.popleft()
        order.append(current)
        for nxt in sorted(successors[current]):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(sccs):
        raise AnalysisError("condensation is cyclic; Tarjan output inconsistent")
    return order


def _inputs_for(
    dataflow: Dataflow,
    component: str,
    in_iface: str,
    stream_labels: dict[str, Label],
    stream_rep: dict[str, bool],
) -> list[tuple[Stream, Label, bool]]:
    inputs = []
    for stream in dataflow.streams_into(component, in_iface):
        if stream.name not in stream_labels:
            raise AnalysisError(
                f"stream {stream.name!r} feeding {component}.{in_iface} has no "
                f"label yet; processing order is inconsistent"
            )
        inputs.append(
            (stream, stream_labels[stream.name], stream_rep.get(stream.name, False))
        )
    return inputs


def _component_replicated(
    dataflow: Dataflow,
    component: Component,
    stream_rep: dict[str, bool],
) -> bool:
    if component.rep:
        return True
    return any(
        stream_rep.get(s.name, False) or s.rep
        for s in dataflow.streams_into(component.name)
    )


def _process_output(
    dataflow: Dataflow,
    component_name: str,
    out_iface: str,
    fds: FDSet,
    stream_labels: dict[str, Label],
    stream_rep: dict[str, bool],
    outputs: dict[tuple[str, str], OutputAnalysis],
) -> None:
    component = dataflow.component(component_name)
    steps: list[DerivationStep] = []
    labels: list[Label] = []
    for path in component.paths_into(out_iface):
        for _stream, label, _rep in _inputs_for(
            dataflow, component_name, path.from_iface, stream_labels, stream_rep
        ):
            derived = derive_path(label, path.annotation, fds)
            steps.extend(derived)
            labels.extend(step.output_label for step in derived)
    replicated = _component_replicated(dataflow, component, stream_rep)
    result = reconcile(labels, replicated=replicated, fds=fds)
    record = OutputAnalysis(
        component=component_name,
        interface=out_iface,
        steps=tuple(steps),
        reconciliation=result,
        replicated=replicated,
    )
    outputs[(component_name, out_iface)] = record
    # Stream replication is the producing component's Rep flag (or the
    # stream's own annotation); consumer-side replication does not make the
    # produced stream replicated.
    for stream in dataflow.streams_from(component_name, out_iface):
        stream_labels[stream.name] = result.merged
        stream_rep[stream.name] = stream.rep or component.rep


def _process_cycle(
    dataflow: Dataflow,
    scc: frozenset[_Node],
    fds: FDSet,
    stream_labels: dict[str, Label],
    stream_rep: dict[str, bool],
    outputs: dict[tuple[str, str], OutputAnalysis],
) -> None:
    """Collapse one interface-level cycle and label its outputs.

    The collapsed node carries every distinct annotation among the paths
    whose endpoints both lie inside the cycle.  Every output interface
    inside the cycle derives labels from (a) the streams entering the
    cycle from outside, through each of those annotations, and (b) any
    non-cycle paths reaching it, through their own annotations.
    """
    members = {node[1] for node in scc}
    in_nodes = {(c, i) for d, c, i in scc if d == _IN}
    out_nodes = {(c, i) for d, c, i in scc if d == _OUT}

    cycle_annotations = _cycle_annotations(dataflow, scc)
    replicated = any(dataflow.component(name).rep for name in members)

    # Labels entering the cycle: (a) streams from outside into in-interfaces
    # that belong to the cycle...
    entry_labels: list[Label] = []
    for comp, iface in sorted(in_nodes):
        for stream in dataflow.streams_into(comp, iface):
            if stream.src is not None and (stream.src[0], stream.src[1]) in out_nodes:
                continue  # intra-cycle stream: labeled when the cycle resolves
            if stream.name not in stream_labels:
                raise AnalysisError(
                    f"stream {stream.name!r} feeding cycle member {comp}.{iface} "
                    f"has no label yet; processing order is inconsistent"
                )
            entry_labels.append(stream_labels[stream.name])
            replicated = replicated or stream_rep.get(stream.name, False)

    # ...and (b) outputs of non-cycle paths that terminate at a cycle
    # interface: those records circulate through the cycle too.  Their
    # direct derivations also appear at their own output interface.
    direct: dict[tuple[str, str], list[DerivationStep]] = {}
    internal_feed: list[Label] = []
    for comp_name, out_iface in sorted(out_nodes):
        component = dataflow.component(comp_name)
        for path in component.paths_into(out_iface):
            if (comp_name, path.from_iface) in in_nodes:
                continue  # a cycle path: one of the cycle's annotations
            for _stream, label, _rep in _inputs_for(
                dataflow, comp_name, path.from_iface, stream_labels, stream_rep
            ):
                derived = derive_path(label, path.annotation, fds)
                direct.setdefault((comp_name, out_iface), []).extend(derived)
                for step in derived:
                    if step.output_label.is_internal:
                        # tainted state anywhere in the cycle contaminates
                        # every member
                        internal_feed.append(step.output_label)
                    else:
                        entry_labels.append(step.output_label)

    for comp_name, out_iface in sorted(out_nodes):
        steps: list[DerivationStep] = list(direct.get((comp_name, out_iface), ()))
        labels: list[Label] = [step.output_label for step in steps]
        for label in entry_labels:
            for annotation in cycle_annotations:
                derived = derive_path(label, annotation, fds)
                steps.extend(derived)
                labels.extend(step.output_label for step in derived)
        labels.extend(internal_feed)
        result = reconcile(labels, replicated=replicated, fds=fds)
        record = OutputAnalysis(
            component=comp_name,
            interface=out_iface,
            steps=tuple(steps),
            reconciliation=result,
            replicated=replicated,
            collapsed=True,
        )
        outputs[(comp_name, out_iface)] = record
        # as in _process_output: a stream leaving the cycle is replicated iff
        # its own producer is, whatever the other members are
        producer_rep = dataflow.component(comp_name).rep
        for stream in dataflow.streams_from(comp_name, out_iface):
            stream_labels[stream.name] = result.merged
            stream_rep[stream.name] = stream.rep or producer_rep


def _cycle_annotations(
    dataflow: Dataflow, scc: frozenset[_Node]
) -> tuple[PathAnnotation, ...]:
    """The distinct annotations of the cycle's member paths, in an order
    fixed by the annotations themselves, not by component names."""
    in_nodes = {(c, i) for d, c, i in scc if d == _IN}
    out_nodes = {(c, i) for d, c, i in scc if d == _OUT}
    annotations = {
        path.annotation
        for comp_name in {node[1] for node in scc}
        for path in dataflow.component(comp_name).paths
        if (comp_name, path.from_iface) in in_nodes
        and (comp_name, path.to_iface) in out_nodes
    }
    if not annotations:
        raise AnalysisError("cycle contains no member paths; graph inconsistent")
    return tuple(sorted(annotations, key=lambda a: (a.severity, str(a))))
