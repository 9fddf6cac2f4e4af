"""Fault-injection campaigns with a runtime consistency oracle.

The label analysis (:mod:`repro.core`) is *predictive*: it says which
Figure 8 anomalies a dataflow can exhibit and synthesizes coordination
that makes them impossible.  This package audits that claim empirically,
in the spirit of the paper's Section VII evaluation:

* :mod:`repro.chaos.schedule` — a declarative, composable fault-schedule
  DSL (crash/recover, loss and duplication windows, link partitions,
  reorder bursts) compiled onto :class:`repro.sim.failure.FailureInjector`;
* :mod:`repro.chaos.oracle` — consistency oracles that classify a *set*
  of seeded runs into the Figure 8 severity lattice by comparing committed
  outputs across seeds (``Run``), across replicas after quiescence
  (``Inst``/``Diverge``), and against app ground truth (``Async`` vs
  exactly-once);
* :mod:`repro.chaos.harnesses` — the generic adapter over registered
  :class:`~repro.api.BlazesApp` audit profiles that runs one
  (strategy, schedule, seed) cell and extracts a
  :class:`~repro.chaos.oracle.RunObservation`;
* :mod:`repro.chaos.campaign` — the audit cell, joining each observed
  severity against the label predicted by
  :func:`repro.core.analysis.analyze` into a soundness verdict
  (``observed <= predicted``), and the one loop
  (:meth:`~repro.chaos.campaign.Sweep.run`) driving every sweep of such
  cells — audit, Figure 6 matrix, search, frontier — through the engine;
* :mod:`repro.chaos.envelope` — declared fault-tolerance envelopes: the
  faults an app *claims* to tolerate; schedules outside the envelope
  classify as ``out-of-envelope`` instead of ``unsound``;
* :mod:`repro.chaos.search` — adaptive search over the schedule space: a
  seeded composite generator, a delta-debugging shrinker to 1-minimal
  counterexamples, and the severity-frontier bisection
  (``blazes audit --search`` / ``blazes frontier``).

See ``docs/chaos.md`` for the observed-vs-predicted mapping to paper
Figure 8 and Section VII.
"""

from repro.chaos.campaign import (
    audit_campaign,
    audit_to_dict,
    campaign_is_sound,
    campaign_tightness,
    demonstrated_anomalies,
    matrix_apps,
    matrix_campaign,
    matrix_is_expected,
    matrix_summary,
    out_of_envelope_cells,
    render_audit,
    render_matrix,
    schedule_cell_name,
)
from repro.chaos.envelope import (
    FaultEnvelope,
    cell_status,
    order_only_envelope,
    reliable_sessions_envelope,
    replay_envelope,
)
from repro.chaos.harnesses import AppHarness, audit_apps, harness_for
from repro.chaos.oracle import (
    ObservedLabel,
    OracleVerdict,
    RunObservation,
    classify_runs,
)
from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
    baseline,
    crash_restart,
    dup_burst,
    fault_from_dict,
    fault_kind,
    fault_to_dict,
    loss_burst,
    reorder_burst,
    schedule_from_dict,
    schedule_to_dict,
    split_link,
)
from repro.chaos.search import (
    ShrinkOutcome,
    composite_schedule,
    composite_schedules,
    frontier_campaign,
    render_frontier,
    render_search,
    search_is_sound,
    shrink_schedule,
)

__all__ = [
    "AppHarness",
    "Crash",
    "Duplicate",
    "FaultEnvelope",
    "FaultSchedule",
    "Loss",
    "ObservedLabel",
    "OracleVerdict",
    "Partition",
    "Reorder",
    "RunObservation",
    "ShrinkOutcome",
    "audit_apps",
    "audit_campaign",
    "audit_to_dict",
    "baseline",
    "campaign_is_sound",
    "campaign_tightness",
    "cell_status",
    "classify_runs",
    "composite_schedule",
    "composite_schedules",
    "crash_restart",
    "demonstrated_anomalies",
    "dup_burst",
    "fault_from_dict",
    "fault_kind",
    "fault_to_dict",
    "frontier_campaign",
    "harness_for",
    "loss_burst",
    "matrix_apps",
    "matrix_campaign",
    "matrix_is_expected",
    "matrix_summary",
    "order_only_envelope",
    "out_of_envelope_cells",
    "reliable_sessions_envelope",
    "render_audit",
    "render_frontier",
    "render_matrix",
    "render_search",
    "reorder_burst",
    "replay_envelope",
    "schedule_cell_name",
    "schedule_from_dict",
    "schedule_to_dict",
    "search_is_sound",
    "shrink_schedule",
    "split_link",
]
