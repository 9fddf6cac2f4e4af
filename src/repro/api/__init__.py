"""The programmatic Blazes application API.

One object — a :class:`BlazesApp` — carries a dataflow declared once in
Python and derives every stage of the paper's loop from it::

    from repro.api import get_app

    app = get_app("wordcount")
    print(app.spec())                     # grey-box YAML, derived
    result = app.analyze("sealed")        # label analysis
    plan = app.plan("sealed")             # synthesized coordination
    outcome = app.run("sealed", seed=7)   # simulated execution

Components are annotated in place with :func:`annotate` (Storm bolts,
grey-box classes) or analyzed white-box (Bloom modules, cross-checked
against any declared labels); apps register themselves with
:func:`register` so the CLI, benchmarks, and audit campaign enumerate one
catalog.  See ``docs/api.md`` for the full walkthrough.
"""

from repro.api.annotate import annotate, crosscheck_module, declared_annotations
from repro.api.app import AuditProfile, BlazesApp, RunOutcome, StrategySpec
from repro.api.registry import (
    app_names,
    audit_app_names,
    get_app,
    iter_apps,
    register,
)

__all__ = [
    "AuditProfile",
    "BlazesApp",
    "RunOutcome",
    "StrategySpec",
    "annotate",
    "app_names",
    "audit_app_names",
    "crosscheck_module",
    "declared_annotations",
    "get_app",
    "iter_apps",
    "register",
]
