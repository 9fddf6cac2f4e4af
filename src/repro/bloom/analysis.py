"""White-box annotation extraction for Bloom modules (paper Section VII).

Grey-box users annotate components by hand; Bloom programs are analyzable,
so Blazes derives the annotations automatically:

* **confluence** — a statement is confluent iff its body is syntactically
  monotonic (no antijoin, no un-hinted aggregation, no deletion);
* **state** — a statement is a Write iff its left-hand side is a table;
* **subscripts** — the gate of a nonmonotonic statement is the grouping
  key set (aggregation) or the theta columns (antijoin), traced back to
  input-interface attributes through the catalog's identity lineage;
* **composition** — a module path from input interface ``I`` to output
  interface ``O`` composes the statements along it: the path is a Write
  iff any statement on it writes a table, order-sensitive iff any
  statement on it is nonmonotonic.

One divergence from the paper's *manual* annotations (Section VI-B1): the
hand-written spec labels the Report click-to-response path ``CW`` because
clicks "simply append to a log", attributing all order sensitivity to the
request path.  The syntactic analysis sees the aggregation on the click
path too and extracts ``OR[gate]`` for it — order-sensitive, but a Read,
because the only table writes on the path are confluent appends *upstream*
of the aggregation (see ``_compose``).  Together with the relaxed
``protected`` predicate (see :mod:`repro.core.reconciliation`) the
end-to-end verdicts coincide with the paper for every query in Figure 6.
"""

from __future__ import annotations

import dataclasses

from repro.bloom.ast import AntiJoin, GroupBy
from repro.bloom.catalog import Catalog
from repro.bloom.collections import CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.rules import Rule
from repro.core.annotations import CR, CW, OR, OW, STAR, PathAnnotation
from repro.core.fd import FDSet
from repro.core.graph import Component, Dataflow

__all__ = [
    "StatementAnnotation",
    "PathReport",
    "ModuleAnalysis",
    "annotate_statement",
    "analyze_module",
    "attach_component",
]


@dataclasses.dataclass(frozen=True)
class StatementAnnotation:
    """The derived C.O.W.R. properties of one Bloom statement."""

    rule: Rule
    confluent: bool
    stateful: bool
    gate: frozenset[str] | None  # None = confluent; empty -> unknown (*)


@dataclasses.dataclass(frozen=True)
class PathReport:
    """One module path from an input interface to an output interface."""

    input: str
    output: str
    annotation: PathAnnotation
    rules: tuple[Rule, ...]
    collections: tuple[str, ...]


@dataclasses.dataclass
class ModuleAnalysis:
    """The complete white-box analysis of one module."""

    module: BloomModule
    statements: tuple[StatementAnnotation, ...]
    paths: tuple[PathReport, ...]
    fds: FDSet

    def annotation_for(self, input_iface: str, output_iface: str) -> PathAnnotation:
        for path in self.paths:
            if path.input == input_iface and path.output == output_iface:
                return path.annotation
        raise KeyError(f"no path {input_iface} -> {output_iface}")

    def spec_annotations(self) -> list[dict]:
        """Spec-file style annotation entries (Section VI syntax)."""
        entries = []
        for path in self.paths:
            entry = {
                "from": path.input,
                "to": path.output,
                "label": path.annotation.kind.value,
            }
            gate = path.annotation.gate
            if isinstance(gate, frozenset):
                entry["subscript"] = sorted(gate)
            entries.append(entry)
        return entries


def annotate_statement(
    module: BloomModule, rule: Rule, catalog: Catalog | None = None
) -> StatementAnnotation:
    """Derive the annotation of one statement."""
    catalog = catalog or Catalog(module)
    confluent = rule.monotonic
    stateful = module.declaration(rule.lhs).kind is CollectionKind.TABLE
    gate: frozenset[str] | None = None
    if not confluent:
        gate = _statement_gate(rule, catalog)
    return StatementAnnotation(rule, confluent, stateful, gate)


def _statement_gate(rule: Rule, catalog: Catalog) -> frozenset[str]:
    """The traced partition attributes of a nonmonotonic statement.

    Aggregations contribute their grouping keys; antijoins their theta
    columns (paper Section VII-B2).  Key columns are chased back to input
    interface attributes; a key that cannot be traced contributes nothing.
    An empty result means the partitioning is unknown (``*``).
    """
    attrs: set[str] = set()
    for op in rule.rhs.nonmonotonic_ops():
        if isinstance(op, GroupBy):
            key_cols = op.keys
            lineage = op.lineage()
        elif isinstance(op, AntiJoin):
            key_cols = op.theta_columns
            lineage = op.left.lineage()
        else:  # pragma: no cover - defensive
            continue
        for key in key_cols:
            for coll, col in lineage.get(key, frozenset()):
                decl = catalog.module.declaration(coll)
                if decl.kind is CollectionKind.INPUT:
                    attrs.add(col)
                else:
                    for _ic, icol in catalog.trace_to_inputs(coll, col):
                        attrs.add(icol)
    return frozenset(attrs)


def analyze_module(module: BloomModule) -> ModuleAnalysis:
    """Run the full white-box analysis of a module."""
    catalog = Catalog(module)
    statements = tuple(
        annotate_statement(module, rule, catalog) for rule in module.program
    )
    by_rule = {id(ann.rule): ann for ann in statements}

    # Rule-level reachability: collection -> (rule, lhs collection).
    edges: dict[str, list[tuple[Rule, str]]] = {}
    for rule in module.program:
        for scanned in rule.rhs.scans():
            edges.setdefault(scanned, []).append((rule, rule.lhs))

    paths: list[PathReport] = []
    outputs = {d.name for d in module.outputs}
    for input_decl in module.inputs:
        found: dict[str, list[tuple[tuple[Rule, ...], tuple[str, ...]]]] = {}
        _walk(input_decl.name, edges, outputs, (), (input_decl.name,), found)
        for output_name, routes in sorted(found.items()):
            annotation = _compose(routes, by_rule)
            # keep the first route for reporting
            rules, collections = routes[0]
            paths.append(
                PathReport(input_decl.name, output_name, annotation, rules, collections)
            )

    fds = catalog.identity_fds()
    return ModuleAnalysis(module, statements, tuple(paths), fds)


def _walk(
    current: str,
    edges: dict[str, list[tuple[Rule, str]]],
    outputs: set[str],
    rules: tuple[Rule, ...],
    collections: tuple[str, ...],
    found: dict[str, list[tuple[tuple[Rule, ...], tuple[str, ...]]]],
) -> None:
    if current in outputs:
        found.setdefault(current, []).append((rules, collections))
        return
    for rule, target in edges.get(current, ()):
        if target in collections:
            continue  # simple paths only
        _walk(
            target,
            edges,
            outputs,
            rules + (rule,),
            collections + (target,),
            found,
        )


def _compose(routes, by_rule) -> PathAnnotation:
    """Compose statement annotations along every route of one (I, O) pair.

    Confluence composes conjunctively and gates accumulate from the
    nonmonotonic statements.  Statefulness is subtler: a *confluent* table
    write upstream of the order-sensitive statement is convergent state
    (the paper's "simply appends clicks to a log" — annotated ``CW`` /
    ``OR`` by hand in Section VI-B1), so it does not make the composed
    path a Write.  Only a table written *by* the nonconfluent statement,
    or by any statement downstream of it on the path, means unordered
    inputs can corrupt persistent state (``OW``).
    """
    confluent = True
    stateful = False
    order_stateful = False
    gates: list[frozenset[str]] = []
    for rules, _collections in routes:
        seen_nonconfluent = False
        for rule in rules:
            ann = by_rule[id(rule)]
            if not ann.confluent:
                confluent = False
                seen_nonconfluent = True
                if ann.gate is not None:
                    gates.append(ann.gate)
            if ann.stateful:
                stateful = True
                if seen_nonconfluent:
                    order_stateful = True
    if confluent:
        return CW() if stateful else CR()
    stateful = order_stateful
    gate: frozenset[str] | object
    distinct = {g for g in gates if g}
    if not distinct:
        gate = STAR
    elif len(distinct) == 1:
        gate = next(iter(distinct))
    else:
        merged = frozenset.intersection(*distinct)
        gate = merged if merged else STAR
    if gate is STAR:
        return OW() if stateful else OR()
    return OW(gate) if stateful else OR(gate)


def attach_component(
    dataflow: Dataflow,
    module: BloomModule,
    *,
    name: str | None = None,
    rep: bool = False,
    analysis: ModuleAnalysis | None = None,
) -> Component:
    """Add a module to a dataflow as a component with derived annotations."""
    analysis = analysis or analyze_module(module)
    component = dataflow.add_component(name or module.name, rep=rep)
    for path in analysis.paths:
        component.add_path(path.input, path.output, path.annotation)
    return component
