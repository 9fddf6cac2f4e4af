"""A Bloom-like declarative language runtime with white-box analysis.

Implements the substrate of the paper's second case study: declarative
rules over collections (Section VII), a timestep runtime, distributed
execution over the simulator, automatic annotation extraction, and the
program rewrite that installs synthesized coordination.
"""

from repro.bloom.analysis import (
    ModuleAnalysis,
    PathReport,
    StatementAnnotation,
    analyze_module,
    annotate_statement,
    attach_component,
)
from repro.bloom.ast import (
    AGGREGATES,
    AntiJoin,
    Calc,
    Const,
    GroupBy,
    Join,
    Node,
    Project,
    Scan,
    Select,
    Union,
)
from repro.bloom.catalog import Catalog
from repro.bloom.cluster import CHANNEL_MSG, BloomCluster, BloomNode
from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.rewrite import (
    OrderedInputAdapter,
    SealedInputAdapter,
    apply_strategy,
    strategy_producer,
)
from repro.bloom.rules import MERGE_OPS, Rule
from repro.bloom.runtime import BloomRuntime

__all__ = [
    "ModuleAnalysis",
    "PathReport",
    "StatementAnnotation",
    "analyze_module",
    "annotate_statement",
    "attach_component",
    "AGGREGATES",
    "AntiJoin",
    "Calc",
    "Const",
    "GroupBy",
    "Join",
    "Node",
    "Project",
    "Scan",
    "Select",
    "Union",
    "Catalog",
    "CHANNEL_MSG",
    "BloomCluster",
    "BloomNode",
    "CollectionDecl",
    "CollectionKind",
    "BloomModule",
    "OrderedInputAdapter",
    "SealedInputAdapter",
    "apply_strategy",
    "strategy_producer",
    "MERGE_OPS",
    "Rule",
    "BloomRuntime",
]
