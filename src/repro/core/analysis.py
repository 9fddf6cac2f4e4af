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

One call numbers the interface graph once: each ``(direction, component,
interface)`` node gets a dense integer in the order a sweep over the
components' paths first meets it, and the same sweep and one over the
streams fill the lists the labelling reads — successors, the paths into
each output node, the streams into each input node and out of each output
node.  Tarjan, the condensation order and the labelling index lists; no
step re-scans a component or hashes a node.  Within the call each Figure 9
step is derived once per ``(label, annotation)`` and each reconciliation
once per ``(label set, replicated)``: both are pure functions of frozen,
hashable values and of ``fds``, which is fixed for the call, and
``reconcile`` reduces its input to a frozenset itself.  The pass is linear
in components + streams + paths, however they are distributed.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.core.annotations import PathAnnotation
from repro.core.fd import FDSet
from repro.core.graph import Dataflow, Stream
from repro.core.inference import DerivationStep, derive_path
from repro.core.labels import Async, Label, Seal
from repro.core.reconciliation import ReconciliationResult, reconcile
from repro.errors import AnalysisError

__all__ = ["OutputAnalysis", "AnalysisResult", "analyze"]


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
    return _Pass(dataflow, fds if fds is not None else FDSet()).run()


class _Pass:
    """One call of :func:`analyze`: the numbered interface graph, the
    labels derived so far and the call's two memos.

    Node ``n`` is an output interface when ``is_out[n]``; ``comp[n]``
    indexes ``components`` and ``iface[n]`` names the interface.
    ``into[n]`` is what feeds it: for an output node, ``(input node,
    annotation)`` per path into it; for an input node, the streams into it
    — both in declaration order.  ``streams_out`` maps an output node to
    the streams leaving it, also in declaration order.
    """

    __slots__ = (
        "dataflow", "fds", "components", "ids", "is_out", "comp", "iface", "succ",
        "into", "streams_out", "fed_rep", "scc_of", "stream_labels", "stream_rep",
        "outputs", "_derived", "_reconciled",
    )

    def __init__(self, dataflow: Dataflow, fds: FDSet) -> None:
        self.dataflow = dataflow
        self.fds = fds
        self.components = dataflow.components
        self.stream_labels: dict[str, Label] = {}
        self.stream_rep: dict[str, bool] = {}
        self.outputs: dict[tuple[str, str], OutputAnalysis] = {}
        self._derived: dict[tuple[Label, PathAnnotation], tuple[DerivationStep, ...]] = {}
        self._reconciled: dict[tuple[frozenset[Label], bool], ReconciliationResult] = {}
        self._number()

    def _number(self) -> None:
        """Number the nodes in first-seen order and fill the tables."""
        is_out: list[bool] = []
        comp: list[int] = []
        iface: list[str] = []
        succ: list[list[int]] = []
        into: list[list] = []
        # per component name: its number and its input and output node ids
        ids: dict[str, tuple[int, dict[str, int], dict[str, int]]] = {}
        for c, component in enumerate(self.components):
            ins: dict[str, int] = {}
            outs: dict[str, int] = {}
            ids[component.name] = (c, ins, outs)
            for path in component.paths:
                src = ins.get(path.from_iface)
                if src is None:
                    src = ins[path.from_iface] = len(is_out)
                    is_out.append(False)
                    comp.append(c)
                    iface.append(path.from_iface)
                    succ.append([])
                    into.append([])
                dst = outs.get(path.to_iface)
                if dst is None:
                    dst = outs[path.to_iface] = len(is_out)
                    is_out.append(True)
                    comp.append(c)
                    iface.append(path.to_iface)
                    succ.append([])
                    into.append([])
                succ[src].append(dst)
                into[dst].append((src, path.annotation))

        streams_out: dict[int, list[Stream]] = {}
        # a component is replicated when it is ``Rep`` or a replicated stream
        # feeds it; a stream's replication is static — its own ``Rep`` or its
        # producer's — so it is known here, whatever order labels come in
        fed_rep = [component.rep for component in self.components]
        for stream in self.dataflow.streams:
            dst = -1
            if stream.dst is not None:
                consumer, ins, _outs = ids[stream.dst[0]]
                dst = ins[stream.dst[1]]
                into[dst].append(stream)
                if stream.rep or (
                    stream.src is not None and self.components[ids[stream.src[0]][0]].rep
                ):
                    fed_rep[consumer] = True
            if stream.src is None:
                self.stream_labels[stream.name] = _external_label(stream)
                self.stream_rep[stream.name] = stream.rep
                continue
            src = ids[stream.src[0]][2][stream.src[1]]
            streams_out.setdefault(src, []).append(stream)
            if dst >= 0:
                succ[src].append(dst)
        self.ids, self.is_out, self.comp, self.iface = ids, is_out, comp, iface
        self.succ, self.into, self.streams_out, self.fed_rep = succ, into, streams_out, fed_rep

    def run(self) -> AnalysisResult:
        sccs, self.scc_of = _tarjan(self.succ)
        for k in _condensation_order(self.succ, sccs, self.scc_of):
            members = sccs[k]
            if len(members) > 1:
                self._process_cycle(k, members)
            elif self.is_out[members[0]]:
                self._process_output(members[0])

        if len(self.stream_labels) != len(self.dataflow.streams):
            missing = [s.name for s in self.dataflow.streams if s.name not in self.stream_labels]
            raise AnalysisError(f"streams left unlabeled: {missing}")
        names = [component.name for component in self.components]
        return AnalysisResult(
            dataflow=self.dataflow,
            fds=self.fds,
            outputs=self.outputs,
            stream_labels=self.stream_labels,
            stream_rep=self.stream_rep,
            cycles=tuple(
                frozenset(names[self.comp[node]] for node in scc)
                for scc in sccs
                if len(scc) > 1
            ),
        )

    # ------------------------------------------------------------------
    # the two memos
    # ------------------------------------------------------------------
    def _derive(self, label: Label, annotation: PathAnnotation) -> tuple[DerivationStep, ...]:
        key = (label, annotation)
        steps = self._derived.get(key)
        if steps is None:
            steps = self._derived[key] = tuple(derive_path(label, annotation, self.fds))
        return steps

    def _reconcile(self, labels: frozenset[Label], replicated: bool) -> ReconciliationResult:
        key = (labels, replicated)
        result = self._reconciled.get(key)
        if result is None:
            result = self._reconciled[key] = reconcile(
                labels, replicated=replicated, fds=self.fds
            )
        return result

    # ------------------------------------------------------------------
    # labelling
    # ------------------------------------------------------------------
    def _process_output(self, out: int) -> None:
        stream_labels = self.stream_labels
        steps: list[DerivationStep] = []
        for src, annotation in self.into[out]:
            for stream in self.into[src]:
                steps += self._derive(stream_labels[stream.name], annotation)
        replicated = self.fed_rep[self.comp[out]]
        result = self._reconcile(frozenset(step.output_label for step in steps), replicated)
        self._record(out, steps, result, replicated, collapsed=False)

    def _process_cycle(self, k: int, members: list[int]) -> None:
        """Collapse one interface-level cycle and label its outputs.

        The collapsed node carries every distinct annotation among the paths
        whose endpoints both lie inside the cycle.  Every output interface
        inside the cycle derives labels from (a) the streams entering the
        cycle from outside, through each of those annotations, and (b) any
        non-cycle paths reaching it, through their own annotations.
        """
        scc_of, stream_labels = self.scc_of, self.stream_labels
        # in name order, which orders `steps` and `outputs` but no label:
        # every output of the cycle reconciles the same entry labels, as a set
        ordered = sorted(members, key=lambda n: (self.components[self.comp[n]].name, self.iface[n]))
        in_nodes = [n for n in ordered if not self.is_out[n]]
        out_nodes = [n for n in ordered if self.is_out[n]]

        annotations = {
            annotation
            for out in out_nodes
            for src, annotation in self.into[out]
            if scc_of[src] == k
        }
        if not annotations:
            raise AnalysisError("cycle contains no member paths; graph inconsistent")
        # an order fixed by the annotations themselves, not by component names;
        # it orders `steps` only, since the derived labels reconcile as a set
        cycle_annotations = sorted(annotations, key=lambda a: (a.severity, str(a)))
        replicated = any(self.components[c].rep for c in {self.comp[n] for n in members})

        # Labels entering the cycle: (a) streams from outside into in-interfaces
        # that belong to the cycle...
        entry_labels: list[Label] = []
        for node in in_nodes:
            for stream in self.into[node]:
                producer = stream.src
                if producer is not None and scc_of[self.ids[producer[0]][2][producer[1]]] == k:
                    continue  # intra-cycle stream: labeled when the cycle resolves
                entry_labels.append(stream_labels[stream.name])
                replicated = replicated or self.stream_rep[stream.name]

        # ...and (b) outputs of non-cycle paths that terminate at a cycle
        # interface: those records circulate through the cycle too.  Their
        # direct derivations also appear at their own output interface.
        direct: dict[int, list[DerivationStep]] = {}
        internal_feed: list[Label] = []
        for out in out_nodes:
            for src, annotation in self.into[out]:
                if scc_of[src] == k:
                    continue  # a cycle path: one of the cycle's annotations
                for stream in self.into[src]:
                    derived = self._derive(stream_labels[stream.name], annotation)
                    direct.setdefault(out, []).extend(derived)
                    for step in derived:
                        # tainted state anywhere in the cycle contaminates
                        # every member
                        feed = internal_feed if step.output_label.is_internal else entry_labels
                        feed.append(step.output_label)

        entry_steps = [
            step
            for label in entry_labels
            for annotation in cycle_annotations
            for step in self._derive(label, annotation)
        ]
        for out in out_nodes:
            steps = direct.get(out, []) + entry_steps
            labels = frozenset(step.output_label for step in steps).union(internal_feed)
            result = self._reconcile(labels, replicated)
            self._record(out, steps, result, replicated, collapsed=True)

    def _record(
        self,
        out: int,
        steps: list[DerivationStep],
        result: ReconciliationResult,
        replicated: bool,
        collapsed: bool,
    ) -> None:
        component = self.components[self.comp[out]]
        self.outputs[(component.name, self.iface[out])] = OutputAnalysis(
            component=component.name,
            interface=self.iface[out],
            steps=tuple(steps),
            reconciliation=result,
            replicated=replicated,
            collapsed=collapsed,
        )
        # Stream replication is the producing component's Rep flag (or the
        # stream's own annotation), inside a cycle as outside one; the
        # consumer-side flag does not make the produced stream replicated.
        for stream in self.streams_out.get(out, ()):
            self.stream_labels[stream.name] = result.merged
            self.stream_rep[stream.name] = stream.rep or component.rep


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


def _tarjan(succ: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan strongly-connected components.

    Returns the components in completion order and each node's component
    number; a node with an index but no component yet is on the stack.
    """
    count = len(succ)
    index = [-1] * count
    lowlink = [0] * count
    scc_of = [-1] * count
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] < 0:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    work.append((child, iter(succ[child])))
                    break
                if scc_of[child] < 0 and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    k = len(sccs)
                    members: list[int] = []
                    while True:
                        member = stack.pop()
                        scc_of[member] = k
                        members.append(member)
                        if member == node:
                            break
                    sccs.append(members)
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return sccs, scc_of


def _condensation_order(
    succ: list[list[int]], sccs: list[list[int]], scc_of: list[int]
) -> list[int]:
    """Topological order over the condensation (Kahn's algorithm).

    Ties go to the lower component number, which follows declaration
    order.  Any topological order labels alike — an SCC is processed after
    every SCC that feeds it — except through ``fed_rep``: a component's
    flag reads streams into its *other* interfaces, which this order may
    or may not have labeled yet.
    """
    successors: list[list[int]] = [[] for _ in sccs]
    indegree = [0] * len(sccs)
    last_from = [-1] * len(sccs)
    for a, members in enumerate(sccs):
        for node in members:
            for child in succ[node]:
                b = scc_of[child]
                if b != a and last_from[b] != a:
                    last_from[b] = a
                    successors[a].append(b)
                    indegree[b] += 1
    ready = deque(k for k, degree in enumerate(indegree) if degree == 0)
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
