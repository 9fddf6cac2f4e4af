"""Tests for derivation rendering and the text report."""

from __future__ import annotations

from repro.core import analyze, choose_strategies, render_report
from repro.core.derivation import render_all, render_output
from tests.integration.test_case_studies import (
    ad_network_dataflow,
    wordcount_dataflow,
)


def test_render_output_shows_paper_notation():
    result = analyze(wordcount_dataflow(sealed=False))
    block = render_output(result.output("Count", "counts"))
    assert "Async OW[batch,word] (2) Taint" in block
    assert "Count.counts => Run" in block


def test_render_output_marks_replication():
    result = analyze(ad_network_dataflow("POOR"))
    block = render_output(result.output("Report", "response"))
    assert "Rep" in block
    assert "=> Inst" in block


def test_render_all_has_one_block_per_output():
    result = analyze(wordcount_dataflow(sealed=False))
    blocks = render_all(result).split("\n\n")
    assert len(blocks) == len(result.outputs)


def test_report_contains_labels_verdict_and_plan():
    result = analyze(ad_network_dataflow("POOR"))
    plan = choose_strategies(result)
    report = render_report(result, plan)
    assert "Blazes analysis" in report
    assert "Diverge" in report
    assert "coordination required" in report
    assert "ordered delivery at Report" in report
    assert "Collapsed cycles" in report  # the cache self-edge


def test_derivations_name_the_rule_applied():
    result = analyze(wordcount_dataflow(sealed=True))
    assert "(p)" in render_all(result)


def test_report_consistent_verdict():
    result = analyze(wordcount_dataflow(sealed=True))
    report = render_report(result)
    assert "consistent without coordination" in report
