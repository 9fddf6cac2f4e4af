"""Runtime consistency oracles: classify observed runs into Figure 8.

The analysis *predicts* a label per output stream; these oracles *observe*
one.  Given a set of seeded runs of the same (app, strategy, schedule)
cell, :func:`classify_runs` derives the worst anomaly the runs exhibited:

``Diverge`` (severity 5)
    Some run's replicas disagree on committed state after quiescence —
    transient disagreement hardened into permanent divergence (the paper's
    Section III-B mechanism).
``Inst`` (severity 4)
    Replicas converged on committed state but *emitted* different outputs
    along the way — cross-instance nondeterminism, the "confirmed by
    observation" inconsistency of the uncoordinated ad network.
``Run`` (severity 3)
    Every run is internally consistent, but different seeds (different
    delivery interleavings of the same workload) committed different
    outputs — cross-run nondeterminism, which breaks replay-based fault
    tolerance.  The comparison is *order-conditioned*: runs that recorded
    a sequencer order (:attr:`RunObservation.order`) are compared only
    within equal-order groups, because replay conditions on the recorded
    decision log.
``Async`` (severity 2)
    Deterministic across replicas and seeds, but the committed output
    deviates from the app's ground truth (duplicated or lost effects of
    at-least-once delivery).
``ExactlyOnce`` (severity 1, the ``Seal`` rank)
    Committed output matches ground truth exactly on every run and
    replica: deterministic, exactly-once processing.

Soundness of the analysis is the lattice statement *observed <= predicted*
(:meth:`OracleVerdict.sound_for`): a run may do better than its label, but
never worse.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterable, Mapping

from repro.core.labels import Label

__all__ = ["ObservedLabel", "OracleVerdict", "RunObservation", "classify_runs"]

_MAX_EVIDENCE_ROWS = 3  # sample size when describing set differences


class ObservedLabel(enum.Enum):
    """Empirical severity ranks, aligned with paper Figure 8.

    ``EXACT`` sits at the ``Seal`` rank (1): the strongest guarantee a run
    can demonstrate.  The internal labels (``NDRead``/``Taint``) have no
    observable counterpart — they never label an output stream.
    """

    EXACT = "ExactlyOnce"
    ASYNC = "Async"
    RUN = "Run"
    INST = "Inst"
    DIVERGE = "Diverge"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]

    def __str__(self) -> str:
        return self.value


_SEVERITY: dict[ObservedLabel, int] = {
    ObservedLabel.EXACT: 1,
    ObservedLabel.ASYNC: 2,
    ObservedLabel.RUN: 3,
    ObservedLabel.INST: 4,
    ObservedLabel.DIVERGE: 5,
}


@dataclasses.dataclass(frozen=True)
class RunObservation:
    """What one seeded run committed, emitted, and should have produced.

    ``committed`` maps each replica to its durable state at quiescence;
    ``emitted`` maps the same replicas to everything each ever output
    (its observable history); there is at least one replica.  ``truth``
    is the app's ground-truth committed set, or ``None`` when no
    exactly-once contract applies.

    ``order`` is the run's recorded *decision log* — the total order a
    sequencer committed for the run (``None`` when the deployment uses no
    sequencer).  An ordered deployment is deterministic *given* its
    order, but the order itself differs run to run, so the cross-run
    (``Run``) comparison is conditioned on it: only runs that recorded
    the same order are required to agree.  Replay-based fault tolerance
    replays the log, so this conditioning is exactly the determinism that
    replay needs.
    """

    seed: int
    committed: Mapping[str, frozenset]
    emitted: Mapping[str, frozenset]
    truth: frozenset | None = None
    order: tuple | None = None
    # Causal span capture for the run (a repro.obs.spans.SpanTracker), when
    # the harness ran with telemetry.  Diagnostic payload only: excluded
    # from equality so verdicts stay a function of the observed row sets.
    spans: object | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "committed", dict(self.committed))
        object.__setattr__(self, "emitted", dict(self.emitted))
        # no replica would pass every check vacuously: a wrong "sound"
        if not self.committed:
            raise ValueError(f"seed {self.seed}: an observation needs a replica")
        if self.emitted.keys() != self.committed.keys():
            raise ValueError(
                f"seed {self.seed}: emitted replicas {sorted(self.emitted)} "
                f"are not the committed ones {sorted(self.committed)}"
            )
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))

    def replica_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.committed))


@dataclasses.dataclass(frozen=True)
class OracleVerdict:
    """The classification of one run set, with human-readable evidence."""

    observed: ObservedLabel
    evidence: tuple[str, ...]

    def sound_for(self, predicted: Label) -> bool:
        """The soundness check: observed severity within the prediction."""
        return self.observed.severity <= predicted.severity


def classify_runs(observations: Iterable[RunObservation]) -> OracleVerdict:
    """Classify a set of seeded runs into the Figure 8 lattice.

    Pure and deterministic: the verdict is a function of the observation
    set alone (iteration order normalized by seed), so two identical
    campaigns yield identical verdicts.  Monotone: adding observations can
    only raise the observed severity, never lower it.
    """
    runs = sorted(observations, key=lambda obs: obs.seed)
    if not runs:
        raise ValueError("classify_runs() of an empty observation set")

    evidence: list[str] = []
    worst = ObservedLabel.EXACT

    def note(label: ObservedLabel, message: str) -> None:
        nonlocal worst
        evidence.append(f"{label}: {message}")
        if label.severity > worst.severity:
            worst = label

    # Replica comparison, per run: committed state first (Diverge), then
    # emitted history (Inst).
    for obs in runs:
        names = obs.replica_names()
        if _disagreement(obs.committed, names):
            note(
                ObservedLabel.DIVERGE,
                f"seed {obs.seed}: replicas disagree on committed state "
                f"after quiescence ({_diff_summary(obs.committed, names)})",
            )
        elif _disagreement(obs.emitted, names):
            note(
                ObservedLabel.INST,
                f"seed {obs.seed}: replicas converged but emitted different "
                f"outputs ({_diff_summary(obs.emitted, names)})",
            )

    # Cross-run comparison, conditioned on the recorded order: the same
    # workload under different delivery interleavings must commit (and
    # emit) the same outputs.  Runs that recorded a sequencer order are
    # only compared against runs that recorded the *same* order — an
    # ordered deployment legitimately produces different outputs under
    # different decision logs, and replay always has the log.  Unordered
    # runs (``order=None``) all fall in one group, the unconditional
    # comparison.  The verdict depends on orders only through this
    # grouping, never on their contents (relabeling invariance).
    if len(runs) > 1:
        for members in _order_groups(runs):
            if len(members) < 2:
                continue
            conditioned = (
                " (same recorded sequencer order)"
                if members[0].order is not None
                else ""
            )
            committed_sigs = {o.seed: _signature(o.committed) for o in members}
            emitted_sigs = {o.seed: _signature(o.emitted) for o in members}
            if len(set(committed_sigs.values())) > 1:
                note(
                    ObservedLabel.RUN,
                    "committed outputs differ across seeds "
                    f"{_partition_seeds(committed_sigs)}{conditioned}",
                )
            elif len(set(emitted_sigs.values())) > 1:
                note(
                    ObservedLabel.RUN,
                    "emitted outputs differ across seeds "
                    f"{_partition_seeds(emitted_sigs)}{conditioned}",
                )

    # Ground truth: exactly-once means every replica committed precisely
    # the expected set.
    for obs in runs:
        if obs.truth is None:
            continue
        for name in obs.replica_names():
            rows = obs.committed[name]
            if rows != obs.truth:
                extra = len(rows - obs.truth)
                missing = len(obs.truth - rows)
                note(
                    ObservedLabel.ASYNC,
                    f"seed {obs.seed}: {name} deviates from ground truth "
                    f"(+{extra} unexpected, -{missing} missing)",
                )
                break  # one replica per run is enough evidence

    # Attach a causal slice to any non-exact verdict: for the first run
    # that captured spans, trace one disputed row back through the frames,
    # replays, and coordination decisions that produced it.
    if worst is not ObservedLabel.EXACT:
        from repro.obs.spans import divergence_explain

        for obs in runs:
            slice_lines = divergence_explain(obs)
            if slice_lines:
                evidence.extend(slice_lines)
                break

    return OracleVerdict(worst, tuple(evidence))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _order_groups(runs: list[RunObservation]) -> list[list[RunObservation]]:
    """Partition seed-sorted runs by recorded order, deterministically.

    Group identity is the order *value* (``None`` = the unordered group);
    groups come back ordered by their smallest seed, so the verdict and
    its evidence lines are a pure function of the observation set.
    """
    groups: dict[tuple | None, list[RunObservation]] = {}
    for obs in runs:
        groups.setdefault(obs.order, []).append(obs)
    return sorted(groups.values(), key=lambda members: members[0].seed)


def _disagreement(sets: Mapping[str, frozenset], names: tuple[str, ...]) -> bool:
    if len(names) < 2:
        return False
    reference = sets[names[0]]
    return any(sets[name] != reference for name in names[1:])


def _diff_summary(sets: Mapping[str, frozenset], names: tuple[str, ...]) -> str:
    reference_name = names[0]
    reference = sets[reference_name]
    parts = []
    for name in names[1:]:
        rows = sets[name]
        if rows == reference:
            continue
        only_ref = len(reference - rows)
        only_here = len(rows - reference)
        sample = sorted(map(repr, (reference ^ rows)))[:_MAX_EVIDENCE_ROWS]
        parts.append(
            f"{reference_name} vs {name}: {only_ref}/{only_here} rows "
            f"one-sided, e.g. {', '.join(sample)}"
        )
    return "; ".join(parts)


def _signature(sets: Mapping[str, frozenset]) -> tuple:
    """A canonical, hashable fingerprint of a per-replica row-set map."""
    return tuple(
        (name, frozenset(sets[name])) for name in sorted(sets)
    )


def _partition_seeds(signatures: dict[int, tuple]) -> str:
    """Group seeds by signature, e.g. ``{7} vs {11, 13}``."""
    groups: dict[tuple, list[int]] = {}
    for seed, signature in signatures.items():
        groups.setdefault(signature, []).append(seed)
    rendered = sorted("{" + ", ".join(map(str, sorted(g))) + "}" for g in groups.values())
    return " vs ".join(rendered)
