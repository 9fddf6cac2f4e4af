"""Convergence vs confluence on the LWW key/value store (Section III-B)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvs import APP, KVS_ORDER_TOPIC, LwwKvs, SnapshotCache, run_kvs
from repro.bloom.analysis import analyze_module
from repro.bloom.runtime import BloomRuntime
from repro.chaos.harnesses import replicas
from repro.coord.zookeeper import recorded_order
from repro.core import LabelKind, OrderStrategy, SealStrategy, analyze, choose_strategies
from repro.core.annotations import AnnotationKind
from repro.errors import ApiError
from tests.reference.kvs_ref import kvs_dataflow

writes = st.lists(
    st.tuples(
        st.sampled_from(["x", "y"]),
        st.integers(0, 9),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=12,
)


def final_store(rows, *, one_per_tick: bool) -> dict:
    runtime = BloomRuntime(LwwKvs())
    if one_per_tick:
        for row in rows:
            runtime.insert("put", [row])
            runtime.tick()
    else:
        runtime.insert("put", rows)
        runtime.tick()
    # last writer wins: per key, the value of the greatest (ts, value)
    best: dict = {}
    for key, value, ts in runtime.read("writes"):
        best[key] = max(best.get(key, (ts, value)), (ts, value))
    return {key: value for key, (_ts, value) in best.items()}


class TestConvergence:
    @settings(max_examples=40)
    @given(writes, st.permutations(list(range(12))))
    def test_final_state_is_order_insensitive(self, rows, order):
        """Convergence: the winner per key depends only on the write set."""
        permuted = [rows[i] for i in order if i < len(rows)]
        assert final_store(rows, one_per_tick=True) == final_store(
            permuted, one_per_tick=True
        )

    @settings(max_examples=40)
    @given(writes)
    def test_batched_equals_trickled(self, rows):
        assert final_store(rows, one_per_tick=False) == final_store(
            rows, one_per_tick=True
        )


class TestNonConfluence:
    def test_get_snapshots_depend_on_interleaving(self):
        """Confluence fails: a GET racing two PUTs reads different
        snapshots under different interleavings."""

        def run(first, second):
            runtime = BloomRuntime(LwwKvs())
            runtime.insert("put", [first])
            runtime.tick()
            runtime.insert("get", [("q", "x")])
            out_mid = runtime.tick()["getr"]
            runtime.insert("put", [second])
            runtime.tick()
            return out_mid

        a = ("x", 1, 10)
        b = ("x", 2, 20)
        assert run(a, b) != run(b, a)

    def test_cache_pins_divergent_snapshots(self):
        """Two cache replicas fed different snapshots diverge forever."""
        snapshots = [("q", "x", 1)], [("q", "x", 2)]
        caches = []
        for snapshot in snapshots:
            runtime = BloomRuntime(SnapshotCache())
            runtime.insert("response", snapshot)
            runtime.tick()
            runtime.tick()
            caches.append(runtime.read("entries"))
        assert caches[0] != caches[1]  # permanent: entries is a table


class TestBlazesDiagnosis:
    def test_whitebox_extracts_per_key_gate(self):
        analysis = analyze_module(LwwKvs())
        put_path = analysis.annotation_for("put", "getr")
        get_path = analysis.annotation_for("get", "getr")
        assert put_path.kind is AnnotationKind.OR
        assert put_path.gate == frozenset({"key"})
        assert get_path.kind is AnnotationKind.OR

    def test_unsealed_kvs_cache_dataflow_diverges(self):
        result = analyze(kvs_dataflow())
        assert result.label_of("responses").kind is LabelKind.INST
        assert result.label_of("cached").kind is LabelKind.DIVERGE
        plan = choose_strategies(result)
        assert isinstance(plan.strategy_for("Store"), OrderStrategy)

    def test_per_key_seal_discharges_coordination(self):
        result = analyze(kvs_dataflow(seal_puts_on_key=True))
        assert result.label_of("cached").kind is LabelKind.ASYNC
        plan = choose_strategies(result)
        assert isinstance(plan.strategy_for("Store"), SealStrategy)


class TestKvsCluster:
    """The runnable two-tier deployment (chaos-audit workload)."""

    def test_sealed_run_is_exactly_once_and_deterministic(self):
        for seed in (7, 11):
            outcome = APP.run("sealed", seed=seed, workload_seed=7)
            assert outcome.result.caches_agree
            truth = APP.audit_spec.truth(outcome, {})
            assert outcome.result.cache_entries("cache0") == truth

    def test_uncoordinated_stores_converge_but_caches_diverge(self):
        result = run_kvs("uncoordinated", seed=7, workload_seed=7)
        # convergence without confluence, Section III-B: the LWW stores
        # reach one state while the caches pin divergent snapshots
        assert result.stores_converged
        assert not result.caches_agree

    def test_sealed_defers_gets_until_key_complete(self):
        result = run_kvs("sealed", seed=7, workload_seed=7)
        winners = result.workload.winners()
        for reqid, key, val in result.cache_entries("cache0"):
            assert val == winners[key], (reqid, key)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ApiError, match="no strategy 'chaotic'"):
            run_kvs("chaotic")


class TestOrderedKvs:
    """Section V-B2 applied: the sequencer restores replica agreement."""

    def test_ordered_replicas_agree_everywhere(self):
        result = run_kvs("ordered", seed=7, workload_seed=7)
        assert result.stores_converged
        assert result.caches_agree
        _committed, emitted = replicas(result.cluster, APP.audit_spec)
        assert len(emitted) == len(result.store_nodes)
        assert len(set(emitted.values())) == 1

    def test_ordered_answers_reflect_the_recorded_order_not_final_winners(self):
        """Consistent but not exactly-once: gets sequenced mid-stream read
        the winner *at their slot*, so the committed cache deviates from
        the final-winner ground truth — the Async residue of ordering."""
        outcome = APP.run("ordered", seed=7, workload_seed=7)
        result = outcome.result
        order = recorded_order(result.cluster.trace, KVS_ORDER_TOPIC)
        assert len(order) == result.workload.total_writes + result.workload.gets
        winners: dict = {}
        expected = set()
        for kind, row in order:
            if kind == "put":
                key, val, ts = row
                if winners.get(key) is None or (ts, val) > winners[key]:
                    winners[key] = (ts, val)
            else:
                reqid, key = row
                if key in winners:
                    expected.add((reqid, key, winners[key][1]))
        for cache in result.cache_nodes:
            assert result.cache_entries(cache) == frozenset(expected)
        assert frozenset(expected) != APP.audit_spec.truth(outcome, {})

    def test_different_seeds_pick_different_orders(self):
        orders = {
            recorded_order(
                run_kvs("ordered", seed=seed, workload_seed=7).cluster.trace,
                KVS_ORDER_TOPIC,
            )
            for seed in (7, 11)
        }
        assert len(orders) == 2
