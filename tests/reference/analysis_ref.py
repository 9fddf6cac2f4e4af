"""The label analysis as it was before integer ids, retained as the
executable reference.

:func:`analyze` is :func:`repro.core.analysis.analyze` as it stood when
the interface graph was a dict keyed by ``(direction, component,
interface)`` string tuples: Tarjan and Kahn hash those tuples, every
output interface re-scans its component's paths and every stream into
its component, and each Figure 9 step and Figure 10 reconciliation is
derived afresh per interface.  The production pass numbers the graph once
and derives each distinct step once per call;
``tests/core/test_analysis_reference.py`` holds it to this one — the same
labels, replication flags, cycles, output records and insertion orders.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.core.analysis import AnalysisResult, OutputAnalysis
from repro.core.annotations import PathAnnotation
from repro.core.fd import FDSet
from repro.core.graph import Component, Dataflow, Stream
from repro.core.inference import DerivationStep, derive_path
from repro.core.labels import Async, Label, Seal
from repro.core.reconciliation import reconcile
from repro.errors import AnalysisError

__all__ = ["analyze"]

_IN = "in"
_OUT = "out"
_Node = tuple[str, str, str]  # (direction, component, interface)


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
    for stream in (s for s in dataflow.streams if s.is_external_input):
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
    for stream in dataflow.streams_into(component):
        if stream.dst != (component, in_iface):
            continue
        if stream.name not in stream_labels:
            raise AnalysisError(
                f"stream {stream.name!r} feeding {component}.{in_iface} has no "
                f"label yet; processing order is inconsistent"
            )
        inputs.append(
            (stream, stream_labels[stream.name], stream_rep.get(stream.name, False))
        )
    return inputs


def _stream_replicated(dataflow: Dataflow, stream: Stream) -> bool:
    """A stream's replication is static: its own ``Rep`` or its producer's."""
    return stream.rep or (
        stream.src is not None and dataflow.component(stream.src[0]).rep
    )


def _component_replicated(dataflow: Dataflow, component: Component) -> bool:
    return component.rep or any(
        _stream_replicated(dataflow, s) for s in dataflow.streams_into(component.name)
    )


def _paths_into(component: Component, out_iface: str) -> list:
    return [path for path in component.paths if path.to_iface == out_iface]


def _streams_from(dataflow: Dataflow, component: str, out_iface: str) -> list[Stream]:
    return [stream for stream in dataflow.streams if stream.src == (component, out_iface)]


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
    for path in _paths_into(component, out_iface):
        for _stream, label, _rep in _inputs_for(
            dataflow, component_name, path.from_iface, stream_labels, stream_rep
        ):
            derived = derive_path(label, path.annotation, fds)
            steps.extend(derived)
            labels.extend(step.output_label for step in derived)
    replicated = _component_replicated(dataflow, component)
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
    for stream in _streams_from(dataflow, component_name, out_iface):
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
        for stream in dataflow.streams_into(comp):
            if stream.dst != (comp, iface):
                continue
            if stream.src is not None and (stream.src[0], stream.src[1]) in out_nodes:
                continue  # intra-cycle stream: labeled when the cycle resolves
            if stream.name not in stream_labels:
                raise AnalysisError(
                    f"stream {stream.name!r} feeding cycle member {comp}.{iface} "
                    f"has no label yet; processing order is inconsistent"
                )
            entry_labels.append(stream_labels[stream.name])
            replicated = replicated or _stream_replicated(dataflow, stream)

    # ...and (b) outputs of non-cycle paths that terminate at a cycle
    # interface: those records circulate through the cycle too.  Their
    # direct derivations also appear at their own output interface.
    direct: dict[tuple[str, str], list[DerivationStep]] = {}
    internal_feed: list[Label] = []
    for comp_name, out_iface in sorted(out_nodes):
        component = dataflow.component(comp_name)
        for path in _paths_into(component, out_iface):
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
        for stream in _streams_from(dataflow, comp_name, out_iface):
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
