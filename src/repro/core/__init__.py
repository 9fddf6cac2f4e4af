"""The Blazes analyzer: annotations, labels, inference, and synthesis.

This package implements the paper's primary contribution — the grey-box
coordination analysis.  The typical flow is::

    from repro.core import loads_spec, analyze, choose_strategies

    dataflow, fds = loads_spec(open("wordcount.yaml").read())
    result = analyze(dataflow, fds)
    plan = choose_strategies(result)
"""

from repro._lazy import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".analysis": ("AnalysisResult", "OutputAnalysis", "analyze"),
    ".annotations": (
        "CR", "CW", "OR", "OW", "STAR", "AnnotationKind", "PathAnnotation", "parse_annotation",
    ),
    ".derivation": ("render_all", "render_output"),
    ".fd": ("FD", "FDSet", "compatible"),
    ".graph": ("Component", "Dataflow", "Path", "Stream"),
    ".inference": ("DerivationStep", "derive_path"),
    ".labels": (
        "Async", "Diverge", "Inst", "Label", "LabelKind", "NDRead", "Run", "Seal", "Taint",
        "max_label", "merge_labels",
    ),
    ".patterns": ("Finding", "lint_dataflow"),
    ".reconciliation": ("ReconciliationResult", "is_protected", "reconcile"),
    ".report": ("plan_to_dict", "render_report", "report_to_dict"),
    ".spec": ("build_dataflow", "dump_spec", "load_spec", "loads_spec"),
    ".strategy": (
        "CoordinationPlan", "NoCoordination", "OrderStrategy", "SealStrategy", "choose_strategies",
        "label_under_ordering", "ordered_plan",
    ),
})
