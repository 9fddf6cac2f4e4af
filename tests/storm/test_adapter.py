"""Tests for the topology -> dataflow adapter (grey-box extraction)."""

from __future__ import annotations

import pytest

from repro.apps.wordcount import build_wordcount_topology, wordcount_dataflow
from repro.core import LabelKind, analyze, choose_strategies, SealStrategy, OrderStrategy
from repro.errors import StormError
from repro.storm import Bolt, Fields, Spout, TopologyBuilder, topology_to_dataflow


def test_wordcount_extraction_matches_manual_dataflow():
    result = analyze(wordcount_dataflow(sealed=False))
    assert result.label_of("Commit->sink").kind is LabelKind.RUN
    plan = choose_strategies(result)
    assert isinstance(plan.strategy_for("Count"), OrderStrategy)


def test_sealed_extraction_is_consistent():
    result = analyze(wordcount_dataflow(sealed=True))
    assert result.label_of("Commit->sink").kind is LabelKind.ASYNC
    plan = choose_strategies(result)
    assert isinstance(plan.strategy_for("Count"), SealStrategy)


def test_unannotated_bolt_rejected():
    class Bare(Bolt):
        output_fields = Fields("x")

        def execute(self, tup, emit):
            pass

    class Src(Spout):
        output_fields = Fields("x")

        def next_batch(self, batch_id):
            return None

    builder = TopologyBuilder("bare")
    builder.set_spout("src", Src)
    builder.set_bolt("b", Bare).shuffle_grouping("src")
    with pytest.raises(StormError):
        topology_to_dataflow(builder.build())


def test_stream_names_follow_wiring():
    topology = build_wordcount_topology(workers=2)
    dataflow = topology_to_dataflow(topology)
    names = {s.name for s in dataflow.streams}
    assert names == {
        "tweets->Splitter",
        "Splitter->Count",
        "Count->Commit",
        "Commit->sink",
    }
