"""Tests for the Section X design-pattern lints."""

from __future__ import annotations

from repro.core import CR, CW, OR, OW, CoordinationPlan, Dataflow, OrderStrategy, analyze
from repro.core.patterns import (
    CACHE_OF_NONCONFLUENT,
    REDUNDANT_ORDERING,
    REPLICATED_NONCONFLUENT,
    WIDE_SEAL_QUORUM,
    lint_dataflow,
)
from tests.integration.test_case_studies import ad_network_dataflow


def kinds(findings):
    return {f.kind for f in findings}


def test_replicated_nonconfluent_component_flagged():
    flow = Dataflow("bad-rep")
    comp = flow.add_component("Agg", rep=True)
    comp.add_path("in", "out", OW("k"))
    flow.add_stream("in", dst=("Agg", "in"))
    flow.add_stream("out", src=("Agg", "out"))
    findings = lint_dataflow(analyze(flow))
    assert REPLICATED_NONCONFLUENT in kinds(findings)
    assert any("Agg" == f.component for f in findings)


def test_ordering_a_confluent_component_is_flagged_redundant():
    """A plan that orders a component the analysis found confluent pays
    for coordination that prevents nothing."""
    flow = Dataflow("over-ordered")
    flow.add_component("Log").add_path("in", "out", CR())
    flow.add_stream("in", dst=("Log", "in"))
    flow.add_stream("out", src=("Log", "out"))
    result = analyze(flow)
    assert lint_dataflow(result) == []  # the chosen plan orders nothing
    findings = lint_dataflow(result, CoordinationPlan({"Log": OrderStrategy("Log", ("in",))}))
    assert [(f.kind, f.component) for f in findings] == [(REDUNDANT_ORDERING, "Log")]


def test_replicated_confluent_component_clean():
    flow = Dataflow("good-rep")
    comp = flow.add_component("Log", rep=True)
    comp.add_path("in", "out", CW())
    flow.add_stream("in", dst=("Log", "in"))
    flow.add_stream("out", src=("Log", "out"))
    findings = lint_dataflow(analyze(flow))
    assert REPLICATED_NONCONFLUENT not in kinds(findings)


def test_poor_ad_network_flags_cache_and_replication():
    """The paper's POOR configuration violates both placement patterns:
    the replicated Report is not confluent, and the cache tier consumes
    its Inst-labeled output."""
    result = analyze(ad_network_dataflow("POOR"))
    findings = lint_dataflow(result)
    assert REPLICATED_NONCONFLUENT in kinds(findings)
    assert CACHE_OF_NONCONFLUENT in kinds(findings)
    cache_findings = [f for f in findings if f.kind == CACHE_OF_NONCONFLUENT]
    assert cache_findings[0].component == "Cache"


def test_thresh_ad_network_is_clean():
    result = analyze(ad_network_dataflow("THRESH"))
    findings = lint_dataflow(result)
    assert findings == []


def test_campaign_sealed_is_clean_without_quorum_info():
    result = analyze(ad_network_dataflow("CAMPAIGN", seal=["campaign"]))
    assert lint_dataflow(result) == []


def test_wide_seal_quorum_flagged_with_producer_counts():
    result = analyze(ad_network_dataflow("CAMPAIGN", seal=["campaign"]))
    findings = lint_dataflow(result, producers_per_partition={"c": 10})
    assert WIDE_SEAL_QUORUM in kinds(findings)
    assert "10-way unanimous vote" in findings[-1].message


def test_narrow_seal_quorum_clean():
    result = analyze(ad_network_dataflow("CAMPAIGN", seal=["campaign"]))
    findings = lint_dataflow(result, producers_per_partition={"c": 1})
    assert WIDE_SEAL_QUORUM not in kinds(findings)


def test_findings_render_readably():
    result = analyze(ad_network_dataflow("POOR"))
    text = [str(f) for f in lint_dataflow(result)]
    assert any(text_line.startswith("[replicated-nonconfluent] Report") for text_line in text)
