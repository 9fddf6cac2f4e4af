"""A run's observation is read through the audit profile's declarations.

:func:`repro.chaos.harnesses.replicas` takes a cluster and the
declarations, not an app: a hand-built Bloom cluster of generated
programs is observed exactly as a registered app's run is.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import AuditProfile
from repro.bloom.cluster import BloomCluster
from repro.chaos.harnesses import harness_for, replicas
from repro.chaos.oracle import ObservedLabel, RunObservation, classify_runs
from repro.chaos.schedule import Crash, FaultSchedule
from repro.errors import BloomError, SimulationError
from tests.bloom.test_engine_equivalence import RandomModule, _schedule

TABLES = ("t0", "t1", "t2")


def _declared(**declarations) -> AuditProfile:
    """A profile carrying only the declarations the reading uses."""
    return AuditProfile(
        strategies=(),
        horizon=1.0,
        schedules=(),
        run_params=lambda smoke: {},
        truth=lambda outcome, params: None,
        **declarations,
    )


def _random_cluster(nodes: int = 3) -> BloomCluster:
    """``nodes`` stratifiable generated programs, ``n0``, ``n1``, ...,
    each fed its own random schedule, one planned step per timer, and run
    until every node is quiescent."""
    cluster = BloomCluster(seed=1)
    seed = 0
    while len(cluster.nodes) < nodes:
        seed += 1
        try:
            node = cluster.add_node(f"n{len(cluster.nodes)}", RandomModule(seed))
        except BloomError:
            continue  # unstratifiable draw
        for step, inserts in enumerate(_schedule(seed)):
            for collection, rows in inserts:
                node.after(
                    0.01 * (step + 1), lambda n=node, c=collection, r=rows: n.insert(c, r)
                )
    cluster.run()
    return cluster


def test_a_bare_cluster_of_generated_programs_is_observed_through_the_declarations():
    cluster = _random_cluster()
    profile = _declared(
        roles={"node": "n"},
        committed=("node", {table: table for table in TABLES}),
        emitted=("node", "out0"),
    )
    committed, emitted = replicas(cluster, profile)
    assert sorted(committed) == sorted(emitted) == ["n0", "n1", "n2"]
    for node in cluster.nodes:
        own = {(table, *row) for table in TABLES for row in node.read(table)}
        assert committed[node.name] == own
        assert emitted[node.name] == node.output_history("out0")
    assert any(committed.values()) and any(emitted.values())
    # the oracle classifies it: three different programs are three
    # replicas that disagree
    verdict = classify_runs([RunObservation(1, committed, emitted)])
    assert verdict.observed is ObservedLabel.DIVERGE


def test_two_roles_pair_their_processes_into_numbered_replicas():
    cluster = _random_cluster(nodes=2)
    profile = _declared(
        roles={"holder": "n", "speaker": "n"},
        committed=("holder", {"t0": None}),
        emitted=("speaker", "out0"),
    )
    committed, emitted = replicas(cluster, profile)
    assert sorted(committed) == sorted(emitted) == ["replica0", "replica1"]
    for index, node in enumerate(cluster.nodes):
        assert committed[f"replica{index}"] == node.read("t0")  # untagged
        assert emitted[f"replica{index}"] == node.output_history("out0")


def test_a_role_naming_no_process_is_an_error():
    cluster = _random_cluster(nodes=1)
    profile = _declared(
        roles={"node": "report"},  # a name no process carries
        committed=("node", {"t0": None}),
        emitted=("node", "out0"),
    )
    with pytest.raises(SimulationError, match="no process is named 'report'"):
        replicas(cluster, profile)


def test_a_fault_on_a_role_naming_no_process_is_an_error():
    """Arming a schedule resolves the role it targets: a role that names
    nothing is a typed error, not a division by zero."""
    harness = harness_for("kvs", smoke=True)
    roles = {**harness.profile.roles, "worker": "nobody"}
    harness.profile = dataclasses.replace(harness.profile, roles=roles)
    schedule = FaultSchedule("crash", (Crash("worker", 0, 0.15, 0.3),))
    with pytest.raises(SimulationError, match="no process is named 'nobody'"):
        harness.observe("uncoordinated", schedule, seed=7)


def test_a_storm_store_is_one_replica_with_its_keys_flattened():
    observation, outcome = harness_for("wordcount", smoke=True).observe_outcome(
        "sealed", FaultSchedule("baseline", ()), 7
    )
    store = outcome.cluster.committed_store()
    assert set(observation.committed) == {"store"}
    assert observation.committed["store"] == {
        (word, batch, count) for (word, batch), count in store.items()
    }
    assert observation.emitted == observation.committed
    assert observation.truth == observation.committed["store"]
