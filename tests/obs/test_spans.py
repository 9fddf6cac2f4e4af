"""Causal span tracing and the oracle's divergence explanations."""

from __future__ import annotations

from repro.api import get_app
from repro.chaos.harnesses import harness_for
from repro.chaos.oracle import ObservedLabel, RunObservation, classify_runs
from repro.obs.spans import SpanTracker, divergence_explain, format_slice
from repro.obs.telemetry import Telemetry
from repro.sim.network import Message


def _msg(kind, payload, *, src="a", dst="b", time=1.0):
    return Message(src, dst, kind, payload, time, 1)


def test_frame_delivery_indexes_rows_under_batch_lineage():
    spans = SpanTracker()
    frame = (("tuple", ("w1",)), ("tuple", ("w2",)), ("punct",))
    spans.note_delivery(_msg("st.chan", ("Spout", 3, 1, 0, frame)), 1.0)
    assert spans.lineage_of(("w1",)) == "batch:3"
    assert spans.lineage_of(("w2",)) == "batch:3"
    ((time, lineage, event, node, detail),) = spans.events
    assert (time, lineage, event, node) == (1.0, "batch:3", "frame", "b")
    assert "items=2" in detail and "+punct" in detail


def test_pure_punctuation_frame_is_a_punct_event():
    spans = SpanTracker()
    spans.note_delivery(_msg("st.chan", ("Spout", 3, 1, 5, (("punct",),))), 2.0)
    assert spans.events[0][2] == "punct"


def test_seal_and_sequencer_lineages():
    spans = SpanTracker()
    spans.note_delivery(
        _msg("seal.data", ("clicks", 0, "c0", ("ad1", 3), "s0")), 0.5
    )
    spans.note_delivery(
        _msg("seal.data", ("clicks", 1, ("k",), ("ad3", 5), "s0")), 0.6
    )
    spans.note_delivery(_msg("seal.punct", ("clicks", 2, "c0", "s0")), 0.7)
    spans.note_delivery(_msg("zk.submit", ("orders", ("tbl", ("r",)))), 0.8)
    spans.note_delivery(_msg("zk.deliver", ("orders", 0, ("tbl", ("r",)))), 0.9)
    assert spans.lineage_of(("ad1", 3)) == "part:c0"
    # non-string partitions render via repr
    assert spans.lineage_of(("ad3", 5)) == "part:('k',)"
    # the sequencer value is indexed both as sent and flattened
    assert spans.lineage_of(("tbl", ("r",))) == "topic:orders"
    assert spans.lineage_of(("tbl", "r")) == "topic:orders"
    assert [event[2] for event in spans.slice_for("part:c0")] == [
        "seal-data",
        "seal-vote",
    ]


def test_a_seal_release_shares_the_lineage_of_its_records():
    """The seal manager's release span and the tracker's seal-data spans
    spell a partition's ``part:`` lineage with one function."""
    hub = Telemetry(spans=True)
    get_app("adnet").run("seal", seed=1, smoke=True, telemetry=hub)
    lineages: dict[str, set[str]] = {}
    for _time, lineage, event, _node, _detail in hub.spans.events:
        lineages.setdefault(event, set()).add(lineage)
    assert lineages["seal_release"] and lineages["seal_release"] <= lineages["seal-data"]


def test_lineage_of_strips_a_leading_tag():
    spans = SpanTracker()
    spans.note_delivery(_msg("bloom.chan", ("req", ("q0", "ad1"))), 0.1)
    assert spans.lineage_of(("q0", "ad1")) == "chan:req"
    # replicas often commit ("table", *wire_row)
    assert spans.lineage_of(("responses", "q0", "ad1")) == "chan:req"
    assert spans.lineage_of("not-a-tuple") is None
    assert spans.lineage_of(("unseen",)) is None


def test_event_cap_counts_drops(monkeypatch):
    monkeypatch.setattr("repro.obs.spans._MAX_EVENTS", 2)
    spans = SpanTracker()
    for index in range(4):
        spans.note_event(float(index), "x", "e")
    assert len(spans.events) == 2
    assert spans.dropped == 2


def test_format_slice_elides_the_middle():
    spans = SpanTracker()
    for index in range(12):
        spans.note_event(float(index), "batch:1", "frame", "n")
    lines = format_slice(spans, "batch:1", limit=4)
    assert len(lines) == 5
    assert "(8 events elided)" in lines[2]
    assert format_slice(spans, "batch:404") == []


def test_to_rows_reprs_structured_detail():
    spans = SpanTracker()
    spans.note_event(0.5, "batch:1", "frame", "n", ("structured", 1))
    spans.note_event(0.6, "batch:1", "ack", "n", "plain")
    rows = spans.to_rows()
    assert rows[0]["detail"] == "('structured', 1)"
    assert rows[1] == {
        "t": 0.6, "lineage": "batch:1", "event": "ack", "node": "n",
        "detail": "plain",
    }


def test_divergence_explain_resolves_disputed_rows():
    spans = SpanTracker()
    spans.note_delivery(_msg("zk.submit", ("orders", ("tbl", ("r1",)))), 0.5)
    spans.note_delivery(_msg("zk.deliver", ("orders", 0, ("tbl", ("r1",)))), 0.6)
    obs = RunObservation(
        seed=7,
        committed={"a": frozenset({("tbl", "r1")}), "b": frozenset()},
        emitted={"a": frozenset(), "b": frozenset()},
        spans=spans,
    )
    lines = divergence_explain(obs)
    assert lines and lines[0].startswith("causal slice for ('tbl', 'r1') (topic:orders")
    assert any("submit" in line for line in lines)


def test_divergence_explain_without_spans_is_empty():
    obs = RunObservation(
        seed=7,
        committed={"a": frozenset({("x",)}), "b": frozenset()},
        emitted={"a": frozenset(), "b": frozenset()},
    )
    assert divergence_explain(obs) == ()


def test_oracle_attaches_causal_slice_to_seeded_anomaly():
    """End to end: a seeded uncoordinated adnet run exhibits Inst/Diverge
    and the verdict's evidence carries the disputed row's causal slice."""
    harness = harness_for("adnet", smoke=True)
    schedule = harness.schedule_named("baseline")
    observations = [
        harness.observe("uncoordinated", schedule, seed) for seed in (7, 11)
    ]
    assert all(obs.spans is not None for obs in observations)
    verdict = classify_runs(observations)
    assert verdict.observed.severity >= ObservedLabel.INST.severity
    assert any(line.startswith("causal slice for") for line in verdict.evidence), (
        verdict.evidence
    )
