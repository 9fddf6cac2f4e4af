"""Integration tests for the ad-tracking network (paper Section VIII-B)."""

from __future__ import annotations

import pytest

from repro.apps.ad_network import AdWorkload, run_ad_network
from repro.apps.queries import ORDER_TOPIC
from repro.coord.sealing import registry_path
from repro.coord.zookeeper import recorded_order
from repro.errors import ApiError

SMALL = AdWorkload(
    ad_servers=2,
    entries_per_server=100,
    batch_size=25,
    sleep=0.1,
    campaigns=6,
    requests=6,
    report_replicas=3,
)


@pytest.fixture(scope="module")
def runs():
    """One run per strategy, shared across assertions (simulation is
    deterministic, so sharing is safe)."""
    return {
        strategy: run_ad_network(strategy, workload=SMALL, seed=1)
        for strategy in ("uncoordinated", "ordered", "seal", "independent-seal")
    }


def test_every_strategy_processes_all_records(runs):
    for strategy, result in runs.items():
        for node in result.report_nodes:
            assert result.cluster.trace.total(f"processed:{node}") == SMALL.total_entries, strategy


def test_ordered_is_slowest(runs):
    ordered = runs["ordered"].completion_time
    for strategy in ("uncoordinated", "seal", "independent-seal"):
        assert ordered > runs[strategy].completion_time


def test_seal_strategies_track_uncoordinated(runs):
    """Both seal variants finish within a small factor of uncoordinated."""
    base = runs["uncoordinated"].completion_time
    assert runs["seal"].completion_time < base * 1.5
    assert runs["independent-seal"].completion_time < base * 1.5


def test_ordered_and_sealed_replicas_agree(runs):
    assert runs["ordered"].replicas_agree
    assert runs["seal"].replicas_agree
    assert runs["independent-seal"].replicas_agree


def test_registry_lookups_once_per_partition_per_replica(runs):
    expected = SMALL.campaigns * SMALL.report_replicas
    assert runs["seal"].registry_lookups == expected
    assert runs["independent-seal"].registry_lookups == expected


def test_processed_series_is_monotone_and_complete(runs):
    for strategy, result in runs.items():
        series = result.processed_series(bucket=0.1)
        counts = [count for _, count in series]
        assert counts == sorted(counts), strategy
        assert counts[-1] == SMALL.total_entries, strategy


def test_uncoordinated_can_return_inconsistent_answers():
    """The paper 'confirmed by observation that certain queries posed to
    multiple reporting server replicas returned inconsistent results'.
    With requests racing clicks, some seed exhibits disagreement."""
    workload = AdWorkload(
        ad_servers=2,
        entries_per_server=120,
        batch_size=10,
        sleep=0.02,
        campaigns=4,
        requests=25,
        report_replicas=3,
    )
    saw_disagreement = False
    for seed in range(8):
        result = run_ad_network(
            "uncoordinated", workload=workload, seed=seed, query="POOR",
            query_kwargs={"threshold": 10},
        )
        if not result.replicas_agree:
            saw_disagreement = True
            break
    assert saw_disagreement, "no seed exhibited replica disagreement"


def test_sealed_run_is_deterministic_across_delivery_orders():
    """Seal-coordinated responses are identical for different network
    interleavings — the determinism Blazes certifies for CAMPAIGN."""
    reference = None
    for seed in (3, 4, 5):
        result = run_ad_network(
            "seal", workload=SMALL, seed=seed, workload_seed=1,
            query="CAMPAIGN", query_kwargs={"threshold": 100},
        )
        # compare click tables (the processed log) across replicas
        tables = [
            result.cluster.node(n).read("clicks") for n in result.report_nodes
        ]
        assert tables[0] == tables[1] == tables[2]
        if reference is None:
            reference = tables[0]
        else:
            assert tables[0] == reference


def test_doubling_servers_hurts_ordered_more_than_uncoordinated():
    """The paper's scaling observation: doubling ad servers had little
    effect on the uncoordinated run but tripled the ordered one."""
    small = AdWorkload(ad_servers=2, entries_per_server=80, batch_size=20,
                       sleep=0.1, campaigns=4, requests=4)
    large = AdWorkload(ad_servers=4, entries_per_server=80, batch_size=20,
                       sleep=0.1, campaigns=4, requests=4)
    unc_small = run_ad_network("uncoordinated", workload=small, seed=2)
    unc_large = run_ad_network("uncoordinated", workload=large, seed=2)
    ord_small = run_ad_network("ordered", workload=small, seed=2)
    ord_large = run_ad_network("ordered", workload=large, seed=2)
    unc_growth = unc_large.completion_time / unc_small.completion_time
    ord_growth = ord_large.completion_time / ord_small.completion_time
    assert ord_growth > unc_growth
    assert ord_growth > 1.5


def test_unknown_strategy_rejected():
    with pytest.raises(ApiError, match="no strategy 'chaos'"):
        run_ad_network("chaos", workload=SMALL)


def test_independent_seal_rejects_fewer_campaigns_than_servers():
    """Idle servers would silently understate the offered load."""
    from repro.errors import SimulationError

    workload = AdWorkload(ad_servers=4, campaigns=2)
    with pytest.raises(SimulationError, match="campaigns >= ad_servers"):
        run_ad_network("independent-seal", workload=workload)


def sealed_on(column: str):
    """The ``seal`` strategy declaring its seal on another click column."""
    import dataclasses

    from repro.apps.ad_network import APP

    return dataclasses.replace(APP.strategy_spec("seal"), seals={"c": [column]})


class TestSealKeys:
    """Seal strategies generalized over the Figure 6 partition columns."""

    WORKLOAD = AdWorkload(
        ad_servers=2,
        entries_per_server=80,
        batch_size=20,
        sleep=0.1,
        campaigns=4,
        ads_per_campaign=3,
        requests=4,
        report_replicas=2,
    )

    def test_window_seal_processes_everything_deterministically(self):
        tables = []
        for seed in (3, 4):
            result = run_ad_network(
                sealed_on("window"), workload=self.WORKLOAD, seed=seed,
                workload_seed=1, query="WINDOW",
            )
            for node in result.report_nodes:
                processed = result.cluster.trace.total(f"processed:{node}")
                assert processed == self.WORKLOAD.total_entries
            assert result.replicas_agree
            tables.append(result.cluster.node("report0").read("clicks"))
        assert tables[0] == tables[1]

    def test_window_seal_registers_window_partitions(self):
        result = run_ad_network(
            sealed_on("window"), workload=self.WORKLOAD, seed=3, query="WINDOW"
        )
        zk = result.cluster.network.process("zookeeper")
        for window in range(4):
            producers = zk._znodes.get(f"producers/{window!r}")
            assert producers == ["adserver0", "adserver1"], window

    def test_id_seal_covers_poor_query(self):
        result = run_ad_network(
            sealed_on("id"), workload=self.WORKLOAD, seed=3, query="POOR",
            query_kwargs={"threshold": 10},
        )
        for node in result.report_nodes:
            assert result.cluster.trace.total(f"processed:{node}") == self.WORKLOAD.total_entries
        assert result.replicas_agree
        # the registry holds only ads that are actually produced, and
        # only by the servers that produce them
        zk = result.cluster.network.process("zookeeper")
        produced = set()
        for name in ("adserver0", "adserver1"):
            produced |= result.cluster.network.process(name).seal_partitions
        for ad in produced:
            assert zk._znodes.get(f"producers/{ad!r}"), ad

    def test_unknown_seal_key_rejected(self):
        with pytest.raises(ValueError, match="unknown seal column 'uid'"):
            run_ad_network(sealed_on("uid"), workload=SMALL)


class TestOrderedDecisionLog:
    """The ordered strategy records its sequencer order in the trace."""

    def test_order_recorded_and_complete(self):
        result = run_ad_network("ordered", workload=SMALL, seed=1)
        order = recorded_order(result.cluster.trace, ORDER_TOPIC)
        assert len(order) == SMALL.total_entries + SMALL.requests
        kinds = {kind for kind, _row in order}
        assert kinds == {"click", "request"}

    def test_other_strategies_record_nothing(self):
        result = run_ad_network("seal", workload=SMALL, seed=1)
        assert recorded_order(result.cluster.trace, ORDER_TOPIC) == ()

    def test_replicas_share_emitted_history_under_threshold_crossing(self):
        """Per-item timesteps: ordered replicas emit identical response
        histories even when counts cross the query threshold mid-run."""
        for seed in (1, 2, 3):
            result = run_ad_network(
                "ordered", workload=SMALL, seed=seed, workload_seed=1,
                query="POOR", query_kwargs={"threshold": 4},
            )
            histories = {
                result.responses(node) for node in result.report_nodes
            }
            assert len(histories) == 1, seed


class TestProducerReplicas:
    """Seal producer sets: each producing server is one producer task."""

    REPLICATED = AdWorkload(
        ad_servers=3,
        entries_per_server=100,
        batch_size=25,
        sleep=0.1,
        campaigns=6,
        requests=4,
        report_replicas=2,
    )

    def test_scaled_out_producers_process_all_records(self):
        for strategy in ("seal", "independent-seal"):
            result = run_ad_network(strategy, workload=self.REPLICATED, seed=4)
            for node in result.report_nodes:
                assert (
                    result.cluster.trace.total(f"processed:{node}") == self.REPLICATED.total_entries
                ), strategy
            assert result.replicas_agree, strategy

    def test_registry_entries_are_task_level(self):
        """The znode producer set for a campaign names the producing
        tasks, one per server, each by its process name."""
        result = run_ad_network("seal", workload=self.REPLICATED, seed=4)
        zk = result.cluster.network.process("zookeeper")
        servers = [f"adserver{i}" for i in range(self.REPLICATED.ad_servers)]
        for campaign in range(self.REPLICATED.campaigns):
            assert zk._znodes.get(registry_path(f"c{campaign}")) == servers

    def test_single_replica_layout_matches_seed_behavior(self):
        result = run_ad_network("seal", workload=SMALL, seed=1)
        zk = result.cluster.network.process("zookeeper")
        assert zk._znodes.get(registry_path("c0")) == ["adserver0", "adserver1"]
