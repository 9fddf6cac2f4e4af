"""Unit tests for the consistency oracle's Figure 8 classification."""

from __future__ import annotations

import pytest

from repro.chaos.oracle import ObservedLabel, RunObservation, classify_runs
from repro.core.labels import Async, Diverge, Inst, Run, Seal


def obs(seed, committed, emitted=None, truth=None, order=None):
    return RunObservation(
        seed=seed,
        committed={k: frozenset(v) for k, v in committed.items()},
        emitted={
            k: frozenset(v) for k, v in (emitted or committed).items()
        },
        truth=frozenset(truth) if truth is not None else None,
        order=order,
    )


ROWS = frozenset({("a", 1), ("b", 2)})


def test_exactly_once_when_everything_matches():
    runs = [
        obs(seed, {"r0": ROWS, "r1": ROWS}, truth=ROWS) for seed in (7, 11)
    ]
    verdict = classify_runs(runs)
    assert verdict.observed is ObservedLabel.EXACT
    assert verdict.evidence == ()


def test_truth_deviation_is_async():
    short = ROWS - {("b", 2)}
    runs = [obs(seed, {"r0": short, "r1": short}, truth=ROWS) for seed in (7, 11)]
    verdict = classify_runs(runs)
    assert verdict.observed is ObservedLabel.ASYNC
    assert any("ground truth" in line for line in verdict.evidence)


def test_cross_seed_commit_divergence_is_run():
    runs = [
        obs(7, {"r0": ROWS, "r1": ROWS}),
        obs(11, {"r0": ROWS | {("c", 3)}, "r1": ROWS | {("c", 3)}}),
    ]
    verdict = classify_runs(runs)
    assert verdict.observed is ObservedLabel.RUN
    assert any("across seeds" in line for line in verdict.evidence)


def test_cross_seed_emitted_divergence_is_run():
    runs = [
        obs(7, {"r0": ROWS}, emitted={"r0": ROWS}),
        obs(11, {"r0": ROWS}, emitted={"r0": ROWS | {("c", 3)}}),
    ]
    assert classify_runs(runs).observed is ObservedLabel.RUN


def test_replica_emitted_divergence_is_inst():
    runs = [
        obs(
            7,
            {"r0": ROWS, "r1": ROWS},
            emitted={"r0": ROWS, "r1": ROWS | {("c", 3)}},
        )
    ]
    verdict = classify_runs(runs)
    assert verdict.observed is ObservedLabel.INST
    assert any("converged but emitted" in line for line in verdict.evidence)


def test_replica_state_divergence_is_diverge():
    runs = [obs(7, {"r0": ROWS, "r1": ROWS | {("c", 3)}})]
    verdict = classify_runs(runs)
    assert verdict.observed is ObservedLabel.DIVERGE
    assert any("disagree on committed state" in line for line in verdict.evidence)


def test_diverge_dominates_everything_else():
    runs = [
        obs(7, {"r0": ROWS, "r1": frozenset()}, truth=ROWS),
        obs(11, {"r0": ROWS, "r1": ROWS}, truth=ROWS),
    ]
    assert classify_runs(runs).observed is ObservedLabel.DIVERGE


def test_single_replica_observations_never_diverge():
    runs = [obs(7, {"store": ROWS}), obs(11, {"store": ROWS})]
    assert classify_runs(runs).observed is ObservedLabel.EXACT


def test_empty_observation_set_is_an_error():
    with pytest.raises(ValueError):
        classify_runs([])


def test_severities_align_with_figure8_labels():
    assert ObservedLabel.EXACT.severity == Seal("k").severity
    assert ObservedLabel.ASYNC.severity == Async().severity
    assert ObservedLabel.RUN.severity == Run().severity
    assert ObservedLabel.INST.severity == Inst().severity
    assert ObservedLabel.DIVERGE.severity == Diverge().severity


def test_soundness_is_the_lattice_order():
    runs = [obs(7, {"r0": ROWS, "r1": ROWS | {("c", 3)}})]
    verdict = classify_runs(runs)
    assert verdict.sound_for(Diverge())
    assert not verdict.sound_for(Inst())
    assert not verdict.sound_for(Async())
    exact = classify_runs([obs(7, {"r0": ROWS}, truth=ROWS)])
    assert exact.sound_for(Seal("k"))
    assert exact.sound_for(Async())


def test_verdict_carries_evidence():
    runs = [obs(7, {"r0": ROWS, "r1": frozenset()})]
    verdict = classify_runs(runs)
    assert str(verdict.observed).startswith("Diverge")
    assert any("seed 7" in item for item in verdict.evidence)


class TestOrderConditionedComparison:
    """Cross-run ``Run`` judged conditional on the recorded order."""

    def test_different_orders_exempt_cross_run_divergence(self):
        # an ordered deployment legitimately commits different outputs
        # under different sequencer orders: no Run anomaly
        runs = [
            obs(7, {"r0": ROWS}, order=("a", "b")),
            obs(11, {"r0": ROWS | {("c", 3)}}, order=("b", "a")),
        ]
        assert classify_runs(runs).observed is ObservedLabel.EXACT

    def test_same_order_must_agree(self):
        # replay determinism: same decision log, same outputs — required
        runs = [
            obs(7, {"r0": ROWS}, order=("a", "b")),
            obs(11, {"r0": ROWS | {("c", 3)}}, order=("a", "b")),
        ]
        verdict = classify_runs(runs)
        assert verdict.observed is ObservedLabel.RUN
        assert any(
            "same recorded sequencer order" in line for line in verdict.evidence
        )

    def test_unordered_runs_keep_the_unconditional_comparison(self):
        runs = [
            obs(7, {"r0": ROWS}),
            obs(11, {"r0": ROWS | {("c", 3)}}),
        ]
        assert classify_runs(runs).observed is ObservedLabel.RUN

    def test_unordered_group_is_separate_from_ordered_runs(self):
        # the None group still compares unconditionally; a lone ordered
        # run has no partner and adds nothing
        runs = [
            obs(7, {"r0": ROWS}),
            obs(11, {"r0": ROWS | {("c", 3)}}),
            obs(13, {"r0": ROWS | {("d", 4)}}, order=("a",)),
        ]
        verdict = classify_runs(runs)
        assert verdict.observed is ObservedLabel.RUN
        assert not any(
            "same recorded sequencer order" in line for line in verdict.evidence
        )

    def test_replica_checks_unaffected_by_order(self):
        # ordering conditions only the cross-run block: replica
        # disagreement within one ordered run is still Diverge
        runs = [obs(7, {"r0": ROWS, "r1": frozenset()}, order=("a",))]
        assert classify_runs(runs).observed is ObservedLabel.DIVERGE

    def test_order_normalized_to_tuple(self):
        run = obs(7, {"r0": ROWS}, order=["a", "b"])
        assert run.order == ("a", "b")


def test_an_observation_without_replicas_is_an_error():
    """No replica would pass every check vacuously: a silent "sound"."""
    with pytest.raises(ValueError, match="needs a replica"):
        RunObservation(seed=1, committed={}, emitted={}, truth=frozenset({("a",)}))


def test_emitted_replicas_must_be_the_committed_ones():
    with pytest.raises(ValueError, match="not the committed ones"):
        RunObservation(seed=1, committed={"r0": ROWS}, emitted={"r1": ROWS})
    with pytest.raises(ValueError, match="not the committed ones"):
        RunObservation(seed=1, committed={"r0": ROWS, "r1": ROWS}, emitted={"r0": ROWS})
