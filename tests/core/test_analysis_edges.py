"""Edge cases for the whole-dataflow analysis."""

from __future__ import annotations

import pytest

from repro.core import (
    CR,
    CW,
    OR,
    OW,
    Dataflow,
    Inst,
    LabelKind,
    Run,
    analyze,
)
from repro.errors import AnalysisError


def test_multi_component_cycle_is_collapsed():
    """Two components gossiping through each other form one cycle."""
    flow = Dataflow("gossip")
    a = flow.add_component("A")
    a.add_path("in", "out", CW())
    a.add_path("peer", "out", CW())
    b = flow.add_component("B")
    b.add_path("in", "out", CW())
    flow.add_stream("src", dst=("A", "in"))
    flow.add_stream("ab", src=("A", "out"), dst=("B", "in"))
    flow.add_stream("ba", src=("B", "out"), dst=("A", "peer"))
    flow.add_stream("sink", src=("B", "out"))
    result = analyze(flow)
    assert result.cycles == (frozenset({"A", "B"}),)
    assert result.label_of("sink").kind is LabelKind.ASYNC
    assert result.output("A", "out").collapsed
    assert result.output("B", "out").collapsed


def test_cycle_collapse_takes_worst_annotation():
    """An order-sensitive member dominates the collapsed cycle."""
    flow = Dataflow("bad-gossip")
    a = flow.add_component("A", rep=True)
    a.add_path("in", "out", CW())
    a.add_path("peer", "out", OW("k"))
    b = flow.add_component("B")
    b.add_path("in", "out", CW())
    flow.add_stream("src", dst=("A", "in"))
    flow.add_stream("ab", src=("A", "out"), dst=("B", "in"))
    flow.add_stream("ba", src=("B", "out"), dst=("A", "peer"))
    flow.add_stream("sink", src=("B", "out"))
    result = analyze(flow)
    assert result.label_of("sink").kind is LabelKind.DIVERGE


def test_external_label_override():
    """Tests can mark an external input as already-Inst."""
    flow = Dataflow("override")
    comp = flow.add_component("Store")
    comp.add_path("in", "out", CW())
    flow.add_stream("in", dst=("Store", "in"), label=Inst(), rep=True)
    flow.add_stream("out", src=("Store", "out"))
    result = analyze(flow)
    # Inst into stateful + replicated consumer -> Diverge
    assert result.label_of("out").kind is LabelKind.DIVERGE


def test_label_override_with_seal_rejected():
    from repro.errors import DataflowError

    flow = Dataflow("conflict")
    comp = flow.add_component("C")
    comp.add_path("in", "out", OW("k"))
    # now rejected at construction time (keeps every dataflow dumpable)...
    with pytest.raises(DataflowError):
        flow.add_stream("in", dst=("C", "in"), seal=["k"], label=Run())
    # ...and the analyzer still rejects a hand-assembled conflicting stream
    flow.add_stream("in", dst=("C", "in"), seal=["k"])
    flow.stream("in").label = Run()
    flow.add_stream("out", src=("C", "out"))
    with pytest.raises(AnalysisError):
        analyze(flow)


def test_rep_stream_annotation_without_rep_component():
    """The Rep annotation can ride on a stream directly."""
    flow = Dataflow("rep-stream")
    producer = flow.add_component("P")
    producer.add_path("in", "out", OR("k"))
    consumer = flow.add_component("C")
    consumer.add_path("in", "out", CW())
    flow.add_stream("src", dst=("P", "in"))
    flow.add_stream("mid", src=("P", "out"), dst=("C", "in"), rep=True)
    flow.add_stream("sink", src=("C", "out"))
    result = analyze(flow)
    # P itself is unreplicated -> its unprotected read is Run.  Run means
    # cross-run nondeterminism only: within one run, every consumer
    # replica sees the same contents, so the output does not diverge —
    # it stays Run through the confluent stateful consumer.
    assert result.label_of("mid").kind is LabelKind.RUN
    assert result.label_of("sink").kind is LabelKind.RUN


def test_fan_out_assigns_same_label_to_all_consumers():
    flow = Dataflow("fan")
    src = flow.add_component("Src")
    src.add_path("in", "out", CR())
    for name in ("A", "B"):
        comp = flow.add_component(name)
        comp.add_path("in", "out", CR())
        flow.add_stream(f"to_{name}", src=("Src", "out"), dst=(name, "in"))
        flow.add_stream(f"out_{name}", src=(name, "out"))
    flow.add_stream("ingress", dst=("Src", "in"), seal=["k"])
    result = analyze(flow)
    assert result.label_of("to_A") == result.label_of("to_B")
    assert result.label_of("out_A").kind is LabelKind.SEAL


def test_multiple_streams_into_one_interface():
    flow = Dataflow("merge-in")
    comp = flow.add_component("Union")
    comp.add_path("in", "out", CW())
    flow.add_stream("left", dst=("Union", "in"), seal=["k"])
    flow.add_stream("right", dst=("Union", "in"))  # unsealed
    flow.add_stream("out", src=("Union", "out"))
    result = analyze(flow)
    # merge of Seal (from left) and Async (from right) -> Async
    assert result.label_of("out").kind is LabelKind.ASYNC


def test_severity_and_consistency_helpers():
    flow = Dataflow("helpers")
    comp = flow.add_component("C", rep=True)
    comp.add_path("in", "out", OW("k"))
    flow.add_stream("in", dst=("C", "in"))
    flow.add_stream("out", src=("C", "out"))
    result = analyze(flow)
    assert result.severity == 5
    assert not result.is_consistent
    assert result.components_needing_coordination() == ("C",)
    assert set(result.sink_labels) == {"out"}


def test_unknown_stream_label_lookup_raises():
    flow = Dataflow("lookup")
    comp = flow.add_component("C")
    comp.add_path("in", "out", CR())
    flow.add_stream("in", dst=("C", "in"))
    flow.add_stream("out", src=("C", "out"))
    result = analyze(flow)
    with pytest.raises(AnalysisError):
        result.label_of("ghost")
    with pytest.raises(AnalysisError):
        result.output("C", "ghost")


@pytest.mark.parametrize("first", ["A", "Z"])  # sorts before / after "B"
@pytest.mark.parametrize("first_rep", [False, True])
@pytest.mark.parametrize("second_rep", [False, True])
def test_stream_leaving_a_cycle_is_replicated_iff_its_producer_is(
    first, first_rep, second_rep
):
    """The label downstream of a collapsed cycle must not depend on which
    member's name sorts last: each leaving stream takes its own producer's
    ``rep``, so an order-sensitive consumer diverges exactly downstream of
    the replicated member."""
    flow = Dataflow("mixed-rep-gossip")
    a = flow.add_component(first, rep=first_rep)
    a.add_path("in", "out", CW())
    a.add_path("peer", "out", CW())
    b = flow.add_component("B", rep=second_rep)
    b.add_path("in", "out", CW())
    flow.add_stream("src", dst=(first, "in"))
    flow.add_stream("ab", src=(first, "out"), dst=("B", "in"))
    flow.add_stream("ba", src=("B", "out"), dst=(first, "peer"))
    for producer in (first, "B"):
        consumer = flow.add_component(f"after-{producer}")
        consumer.add_path("in", "out", OW("k"))
        flow.add_stream(f"leaves-{producer}", src=(producer, "out"), dst=(consumer.name, "in"))
        flow.add_stream(f"sink-{producer}", src=(consumer.name, "out"))
    result = analyze(flow)
    assert result.cycles == (frozenset({first, "B"}),)
    for producer, rep in ((first, first_rep), ("B", second_rep)):
        assert result.stream_rep[f"leaves-{producer}"] is rep
        expected = LabelKind.DIVERGE if rep else LabelKind.RUN
        assert result.label_of(f"sink-{producer}").kind is expected
    assert result.stream_rep["ab"] is first_rep
    assert result.stream_rep["ba"] is second_rep


@pytest.mark.parametrize("sealed_member", ["a", "b"])
def test_cycle_labels_do_not_depend_on_member_names(sealed_member):
    """Two replicated members gossip in a cycle: ``OW[x]`` on one, ``OW[y]``
    on the other.  Records sealed on ``x`` enter at the ``OW[x]`` member
    but still cross the ``OW[y]`` path, so every stream diverges — whether
    the ``OW[x]`` member's name sorts first or last."""
    other = "b" if sealed_member == "a" else "a"
    flow = Dataflow("two-gate-gossip")
    flow.add_component(sealed_member, rep=True).add_path("i0", "o0", OW("x"))
    flow.add_component(other, rep=True).add_path("i0", "o0", OW("y"))
    flow.add_stream("src", dst=(sealed_member, "i0"), seal=["x"])
    flow.add_stream("fwd", src=(sealed_member, "o0"), dst=(other, "i0"))
    flow.add_stream("back", src=(other, "o0"), dst=(sealed_member, "i0"))
    flow.add_stream("sink", src=(other, "o0"))
    result = analyze(flow)
    assert result.cycles == (frozenset({"a", "b"}),)
    labels = {name: result.label_of(name).kind for name in ("fwd", "back", "sink")}
    assert labels == dict.fromkeys(labels, LabelKind.DIVERGE)


def test_cycle_derives_through_each_member_annotation():
    """The most severe member annotation is not the whole story: ``OW[x]``
    consumes a ``Seal[x]`` input to ``Async``, but the less severe
    ``OR[y]`` member still reads it out of order (``Run``)."""
    flow = Dataflow("or-and-ow-gossip")
    flow.add_component("a").add_path("i0", "o0", OW("x"))
    flow.add_component("b").add_path("i0", "o0", OR("y"))
    flow.add_stream("src", dst=("a", "i0"), seal=["x"])
    flow.add_stream("fwd", src=("a", "o0"), dst=("b", "i0"))
    flow.add_stream("back", src=("b", "o0"), dst=("a", "i0"))
    flow.add_stream("sink", src=("b", "o0"))
    assert analyze(flow).label_of("sink").kind is LabelKind.RUN


def test_labels_do_not_depend_on_declaration_order():
    """``X.o0`` (``OW``, fed from outside) and the replicated ``Y`` are
    independent; ``Y`` also feeds ``X.i1``.  ``X`` is replicated through
    ``yx`` however the components are declared, so ``X.o0``'s sink reads
    ``Diverge`` both ways (it used to read ``Run`` when ``X`` came first,
    labeled before ``Y.out`` made ``yx`` count)."""

    def build(y_first: bool) -> Dataflow:
        flow = Dataflow("order")
        for name in ("Y", "X") if y_first else ("X", "Y"):
            if name == "Y":
                flow.add_component("Y", rep=True).add_path("in", "out", CW())
            else:
                x = flow.add_component("X")
                x.add_path("i0", "o0", OW("k"))
                x.add_path("i1", "o1", CW())
        flow.add_stream("e0", dst=("X", "i0"))
        flow.add_stream("e1", dst=("Y", "in"))
        flow.add_stream("yx", src=("Y", "out"), dst=("X", "i1"))
        flow.add_stream("sink0", src=("X", "o0"))
        flow.add_stream("sink1", src=("X", "o1"))
        return flow

    assert analyze(build(False)).stream_labels == analyze(build(True)).stream_labels
    assert analyze(build(False)).label_of("sink0").kind is LabelKind.DIVERGE
