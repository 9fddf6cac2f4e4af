"""The Blazes analyzer: annotations, labels, inference, and synthesis.

This package implements the paper's primary contribution — the grey-box
coordination analysis.  The typical flow is::

    from repro.core import loads_spec, analyze, choose_strategies

    dataflow, fds = loads_spec(open("wordcount.yaml").read())
    result = analyze(dataflow, fds)
    plan = choose_strategies(result)
"""

from repro.core.analysis import AnalysisResult, OutputAnalysis, analyze
from repro.core.annotations import (
    CR,
    CW,
    OR,
    OW,
    STAR,
    AnnotationKind,
    PathAnnotation,
    parse_annotation,
)
from repro.core.compare import dataflow_isomorphic, isomorphism_mismatch
from repro.core.derivation import render_all, render_chain, render_output
from repro.core.fd import FD, FDSet, compatible
from repro.core.graph import Component, Dataflow, Path, Stream
from repro.core.inference import DerivationStep, derive_path
from repro.core.labels import (
    Async,
    Diverge,
    Inst,
    Label,
    LabelKind,
    NDRead,
    Run,
    Seal,
    Taint,
    max_label,
    merge_labels,
)
from repro.core.patterns import Finding, lint_dataflow
from repro.core.reconciliation import ReconciliationResult, is_protected, reconcile
from repro.core.report import plan_to_dict, render_report, report_to_dict
from repro.core.spec import build_dataflow, dump_spec, load_spec, loads_spec
from repro.core.strategy import (
    CoordinationPlan,
    NoCoordination,
    OrderStrategy,
    SealStrategy,
    choose_strategies,
    label_under_ordering,
    ordered_plan,
)

__all__ = [
    "AnalysisResult",
    "OutputAnalysis",
    "analyze",
    "CR",
    "CW",
    "OR",
    "OW",
    "STAR",
    "AnnotationKind",
    "PathAnnotation",
    "parse_annotation",
    "render_all",
    "render_chain",
    "render_output",
    "FD",
    "FDSet",
    "compatible",
    "Component",
    "Dataflow",
    "Path",
    "Stream",
    "dataflow_isomorphic",
    "isomorphism_mismatch",
    "DerivationStep",
    "derive_path",
    "Async",
    "Diverge",
    "Inst",
    "Label",
    "LabelKind",
    "NDRead",
    "Run",
    "Seal",
    "Taint",
    "max_label",
    "merge_labels",
    "Finding",
    "lint_dataflow",
    "ReconciliationResult",
    "is_protected",
    "reconcile",
    "plan_to_dict",
    "render_report",
    "report_to_dict",
    "build_dataflow",
    "dump_spec",
    "load_spec",
    "loads_spec",
    "CoordinationPlan",
    "NoCoordination",
    "OrderStrategy",
    "SealStrategy",
    "choose_strategies",
    "label_under_ordering",
    "ordered_plan",
]
