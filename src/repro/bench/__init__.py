"""Benchmark vocabulary: scenario sweeps, reports, JSON records.

What every sweep is written in (see ``benchmarks/README.md``): declare a
:func:`sweep` of :class:`Scenario` parameter points, hand
:func:`repro.exec.evaluate` a function mapping params to metrics, and get
back a queryable :class:`BenchReport` that a :class:`JsonReporter`
persists as ``BENCH_<name>.json``.  This package runs and times nothing
itself (the engine times each cell) and imports nothing from
:mod:`repro.exec`, which builds on it.
"""

from repro.bench.report import JsonReporter, default_output_dir
from repro.bench.runner import (
    BenchReport,
    Scenario,
    ScenarioResult,
    assemble_report,
    sweep,
)

__all__ = [
    "BenchReport",
    "JsonReporter",
    "Scenario",
    "ScenarioResult",
    "assemble_report",
    "default_output_dir",
    "sweep",
]
