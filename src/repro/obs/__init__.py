"""Unified observability: telemetry hub, coordination-cost accounting,
causal spans, and machine-readable run directories.

See ``docs/observability.md`` for the full model.  The package is
deliberately free of simulator assumptions: a hub only ever receives
``note_send`` / ``note_decision`` calls (and its span tracker the
delivered messages), so any backend speaking the same wire vocabulary
reports through it unchanged.
"""

from repro.obs.coordcost import (
    PLANES,
    aggregate_coordcost,
    classify_message,
    coordcost_report,
)
from repro.obs.rundir import RUNDIR_SCHEMA_VERSION, validate_rundir, write_rundir
from repro.obs.spans import SpanTracker, divergence_explain
from repro.obs.telemetry import Telemetry

__all__ = [
    "PLANES",
    "RUNDIR_SCHEMA_VERSION",
    "SpanTracker",
    "Telemetry",
    "aggregate_coordcost",
    "classify_message",
    "coordcost_report",
    "divergence_explain",
    "validate_rundir",
    "write_rundir",
]
