"""Semantic tests for the Figure 6 reporting queries."""

from __future__ import annotations

import pytest

from repro.apps.queries import QUERY_NAMES, make_report_module
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError


def clicks_for(ad: str, n: int, campaign="c1", window=0):
    return [(campaign, window, ad, f"u{i}") for i in range(n)]


def run_query(query, clicks, requests, **kwargs):
    runtime = BloomRuntime(make_report_module(query, **kwargs))
    runtime.insert("click", clicks)
    runtime.insert("request", requests)
    return runtime.tick()["response"]


def test_thresh_emits_only_above_threshold():
    clicks = clicks_for("hot", 11) + clicks_for("cold", 2)
    responses = run_query(
        "THRESH", clicks, [("q1", "hot"), ("q2", "cold")], threshold=10
    )
    assert responses == {("q1", "hot")}


def test_poor_emits_only_below_threshold():
    clicks = clicks_for("hot", 11) + clicks_for("cold", 2)
    responses = run_query(
        "POOR", clicks, [("q1", "hot"), ("q2", "cold")], threshold=10
    )
    assert responses == {("q2", "cold")}


def test_window_counts_per_window():
    clicks = clicks_for("ad", 5, window=0) + clicks_for("ad", 1, window=1)
    # threshold 3: window 0 has 5 clicks (not poor), window 1 has 1 (poor)
    responses = run_query("WINDOW", clicks, [("q1", "ad")], threshold=3)
    # the ad is poor in window 1, so it is reported
    assert responses == {("q1", "ad")}


def test_campaign_counts_per_campaign():
    clicks = clicks_for("ad", 5, campaign="c1") + clicks_for("ad", 1, campaign="c2")
    responses = run_query("CAMPAIGN", clicks, [("q1", "ad")], threshold=3)
    assert responses == {("q1", "ad")}


def test_poor_answers_can_shrink_as_clicks_arrive():
    """POOR is nonmonotonic: an early answer is retracted by later clicks
    — the root of the paper's replica-divergence anomaly."""
    runtime = BloomRuntime(make_report_module("POOR", threshold=10))
    runtime.insert("click", clicks_for("ad", 2))
    runtime.insert("request", [("q1", "ad")])
    first = runtime.tick()["response"]
    assert first == {("q1", "ad")}
    runtime.insert("click", clicks_for("ad", 20))
    runtime.insert("request", [("q1", "ad")])
    second = runtime.tick()["response"]
    assert second == frozenset()


def test_thresh_answers_never_retract():
    runtime = BloomRuntime(make_report_module("THRESH", threshold=5))
    runtime.insert("click", clicks_for("ad", 6))
    runtime.insert("request", [("q1", "ad")])
    first = runtime.tick()["response"]
    assert first == {("q1", "ad")}
    runtime.insert("click", clicks_for("ad", 100))
    runtime.insert("request", [("q1", "ad")])
    second = runtime.tick()["response"]
    assert second == {("q1", "ad")}


@pytest.mark.parametrize("query", QUERY_NAMES)
def test_every_query_module_builds(query):
    module = make_report_module(query)
    assert {d.name for d in module.inputs} == {"click", "request"}
    assert [d.name for d in module.outputs] == ["response"]


def test_unknown_query_rejected():
    with pytest.raises(BloomError, match="unknown query 'MEDIAN'"):
        make_report_module("MEDIAN")
    with pytest.raises(BloomError, match="nope"):
        make_report_module("CAMPAIGN", nope=1)


class TestRegisteredQueryApps:
    """Each Figure 6 query is a registered app with the three regimes."""

    def test_all_four_apps_registered(self):
        from repro.api import get_app
        from repro.apps.queries import QUERY_MATRIX_APPS

        assert set(QUERY_MATRIX_APPS.values()) == set(QUERY_NAMES)
        for name in QUERY_MATRIX_APPS:
            app = get_app(name)
            assert app.strategies == ("uncoordinated", "sealed", "ordered")
            assert app.auditable

    def test_predicted_labels_reproduce_figure6(self):
        from repro.api import get_app

        predicted = {
            (query, strategy): str(
                get_app(f"q-{query.lower()}").predicted_label(strategy)
            )
            for query in QUERY_NAMES
            for strategy in ("uncoordinated", "sealed", "ordered")
        }
        # THRESH is confluent; the others diverge uncoordinated and are
        # repaired to Async by their seal key or by the sequencer
        for strategy in ("uncoordinated", "sealed", "ordered"):
            assert predicted[("THRESH", strategy)] == "Async"
        for query in ("POOR", "WINDOW", "CAMPAIGN"):
            assert predicted[(query, "uncoordinated")] == "Diverge"
            assert predicted[(query, "sealed")] == "Async"
            assert predicted[(query, "ordered")] == "Async"

    def test_sealed_strategy_uses_the_query_seal_key(self):
        from repro.api import get_app
        from repro.apps.queries import QUERY_MATRIX_APPS, QUERY_SEAL_KEYS

        for name, query in QUERY_MATRIX_APPS.items():
            spec = get_app(name).strategy_spec("sealed")
            # stated once: the runner reads the seal key off the spec
            assert spec.seals == {"c": [QUERY_SEAL_KEYS[query]]}
            assert "seal_key" not in spec.run_params

    def test_ordered_plan_installs_the_sequencer_at_report(self):
        from repro.api import get_app
        from repro.core.strategy import OrderStrategy

        plan = get_app("q-poor").plan("ordered")
        strategy = plan.strategy_for("Report")
        assert isinstance(strategy, OrderStrategy)
        assert strategy.kind == "ordered"
        assert strategy.topic == "report.inputs"
        assert plan.uses_global_order

    def test_runner_maps_sealed_to_the_seal_regime(self):
        from repro.api import get_app

        outcome = get_app("q-window").run("sealed", seed=3)
        # the spec itself carries the regime: one registry lookup per
        # window partition per replica means the seal protocol ran
        assert outcome.result.strategy == "sealed"
        assert outcome.result.registry_lookups == 4 * 2
        assert outcome.metrics["processed"] == outcome.metrics["total_entries"]
        assert outcome.metrics["replicas_agree"]
