"""Differential golden-trace suite: fast kernel vs the seed scheduler.

The fast kernel (``repro.sim.events``) claims to be a pure representation
change over the seed scheduler (``tests/reference/events_ref.py``): list
records instead of handle objects, batch-pop instead of per-event
bookkeeping, wakers instead of guard flags.  These tests are the proof
obligation — every registered app, under every strategy, across several
seeds, must produce **identical** traces, virtual times, event counts,
committed state, and oracle verdicts whether ``make_simulator`` builds the
production kernel or has the reference swapped in from here.

Any observable divergence means the fast kernel changed scheduling
semantics (event order, RNG draw sequence, or bound handling) and fails
here before it can silently perturb a figure or an audit cell.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.api.registry import app_names, audit_app_names, get_app
from repro.chaos.harnesses import AppHarness
from repro.chaos.oracle import classify_runs
from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
    baseline,
)
from tests.reference import reference_kernel

SEEDS = (1, 2, 3)
KERNELS = {"fast": nullcontext, "ref": reference_kernel}


def kernel(name: str):
    """Run the enclosed block on the named kernel."""
    return KERNELS[name]()


def _fingerprint(cluster, metrics=None) -> dict:
    """Everything observable about a finished run, exactly."""
    return {
        "trace": tuple(cluster.trace._rows),
        "now": cluster.sim.now,
        "fired": cluster.sim.fired,
        "pending": cluster.sim.pending,
        "metrics": metrics,
    }


def _matrix() -> list[tuple[str, str]]:
    return [
        (name, strategy)
        for name in app_names()
        for strategy in get_app(name).strategies
    ]


# ----------------------------------------------------------------------
# every registered app x strategy x seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app_name,strategy", _matrix())
def test_app_runs_identically_on_both_kernels(app_name, strategy, seed):
    prints = {}
    for name in KERNELS:
        with kernel(name):
            outcome = get_app(app_name).run(strategy, seed=seed, smoke=True)
        assert outcome.cluster.sim.kernel == name  # the swap took effect
        prints[name] = _fingerprint(outcome.cluster, outcome.metrics)
    assert prints["fast"]["trace"] == prints["ref"]["trace"]
    assert prints["fast"] == prints["ref"]


# ----------------------------------------------------------------------
# audited observations: committed state and oracle verdicts
# ----------------------------------------------------------------------
def _profile_cells() -> list[tuple[str, str, int]]:
    cells = []
    for name in audit_app_names():
        app = get_app(name)
        for strategy in app.audit_spec.strategies:
            for index in range(len(app.audit_spec.schedules)):
                cells.append((name, strategy, index))
    return cells


@pytest.mark.parametrize("app_name,strategy,schedule_index", _profile_cells())
def test_audit_observation_identical_across_kernels(
    app_name, strategy, schedule_index
):
    app = get_app(app_name)
    schedule = app.audit_spec.schedules[schedule_index]
    observations = {}
    for name in KERNELS:
        with kernel(name):
            harness = AppHarness(app, smoke=True)
            observations[name] = harness.observe(strategy, schedule, seed=11)
    assert observations["fast"] == observations["ref"]


@pytest.mark.parametrize("app_name", sorted(audit_app_names()))
def test_oracle_verdict_identical_across_kernels(app_name):
    """The whole classify pipeline — multiple seeds per kernel — agrees."""
    app = get_app(app_name)
    strategy = app.audit_spec.strategies[0]
    schedule = app.audit_spec.schedules[0]
    verdicts = {}
    for name in KERNELS:
        with kernel(name):
            harness = AppHarness(app, smoke=True)
            runs = [harness.observe(strategy, schedule, seed=s) for s in (1, 2)]
        verdicts[name] = classify_runs(runs)
    assert verdicts["fast"] == verdicts["ref"]


# ----------------------------------------------------------------------
# seeded-random fault schedules, run differentially
# ----------------------------------------------------------------------
def _random_schedule(rng: random.Random, roles: tuple[str, ...]) -> FaultSchedule:
    """A random mix of crash/loss/dup/reorder/partition faults.

    Times are normalized to [0, 1] like the canonical library; the
    harness scales them onto the app's horizon.
    """
    faults = []
    for _ in range(rng.randint(1, 4)):
        at = rng.uniform(0.02, 0.6)
        duration = rng.uniform(0.05, 0.35)
        kind = rng.randrange(5)
        if kind == 0:
            faults.append(Crash(rng.choice(roles), 0, at, duration))
        elif kind == 1:
            faults.append(Loss(at, duration, rng.uniform(0.1, 0.6)))
        elif kind == 2:
            faults.append(Duplicate(at, duration, rng.uniform(0.1, 0.6)))
        elif kind == 3:
            faults.append(Reorder(at, duration, rng.uniform(2.0, 10.0)))
        else:
            src, dst = rng.sample(roles, 2) if len(roles) > 1 else (roles[0],) * 2
            faults.append(Partition(src, 0, dst, 0, at, duration))
    return FaultSchedule(f"random-{rng.random():.6f}", tuple(faults))


@pytest.mark.parametrize("app_name", ("adnet", "wordcount"))
@pytest.mark.parametrize("schedule_seed", (101, 202, 303))
def test_random_fault_schedules_run_identically(app_name, schedule_seed):
    app = get_app(app_name)
    rng = random.Random(f"kernel-diff:{app_name}:{schedule_seed}")
    schedule = _random_schedule(rng, ("worker", "source"))
    strategy = rng.choice(app.audit_spec.strategies)
    observations = {}
    for name in KERNELS:
        with kernel(name):
            harness = AppHarness(app, smoke=True)
            observations[name] = harness.observe(
                strategy, schedule, seed=schedule_seed
            )
    assert observations["fast"] == observations["ref"]


# ----------------------------------------------------------------------
# a replicated multi-server adnet, committed state included
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ("uncoordinated", "seal", "independent-seal"))
def test_replicated_adnet_runs_identically(strategy):
    from repro.apps.ad_network import AdWorkload, run_ad_network

    workload = AdWorkload(
        ad_servers=3,
        entries_per_server=120,
        batch_size=30,
        sleep=0.1,
        campaigns=6,
        requests=3,
        report_replicas=2,
    )
    prints = {}
    for name in KERNELS:
        with kernel(name):
            result = run_ad_network(strategy, workload=workload, seed=5)
        prints[name] = _fingerprint(
            result.cluster,
            {
                "processed": result.processed_count(),
                "completion": result.completion_time,
                "agree": result.replicas_agree,
            },
        )
        prints[name]["committed"] = {
            node: result.committed_state(node) for node in result.report_nodes
        }
    assert prints["fast"] == prints["ref"]
    # every click lands and the replicas agree
    metrics = prints["fast"]["metrics"]
    assert metrics["processed"] == workload.total_entries
    assert metrics["agree"]


def test_baseline_schedule_is_equivalence_smoke():
    """The no-fault path through the harness also matches (fast sanity)."""
    app = get_app("kvs")
    observations = {}
    for name in KERNELS:
        with kernel(name):
            harness = AppHarness(app, smoke=True)
            observations[name] = harness.observe(
                app.audit_spec.strategies[0], baseline(), seed=3
            )
    assert observations["fast"] == observations["ref"]
