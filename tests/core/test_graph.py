"""Unit tests for the dataflow graph model."""

from __future__ import annotations

import pytest

from repro.core import CR, CW, OW, Dataflow
from repro.errors import DataflowError


def small_flow() -> Dataflow:
    flow = Dataflow("small")
    a = flow.add_component("A")
    a.add_path("in", "out", CR())
    b = flow.add_component("B", rep=True)
    b.add_path("in", "out", CW())
    flow.add_stream("src", dst=("A", "in"))
    flow.add_stream("mid", src=("A", "out"), dst=("B", "in"))
    flow.add_stream("sink", src=("B", "out"))
    return flow


def test_interfaces_derive_from_paths():
    flow = small_flow()
    a = flow.component("A")
    assert a.input_interfaces == ("in",)
    assert a.output_interfaces == ("out",)


def test_external_endpoints():
    flow = small_flow()
    assert [s.name for s in flow.external_outputs] == ["sink"]


def test_streams_into():
    flow = small_flow()
    assert [s.name for s in flow.streams_into("B")] == ["mid"]
    assert [s.name for s in flow.streams_into("A")] == ["src"]
    assert flow.streams_into("ghost") == ()


def test_duplicate_names_rejected():
    flow = small_flow()
    with pytest.raises(DataflowError):
        flow.add_component("A")
    with pytest.raises(DataflowError):
        flow.add_stream("mid", dst=("A", "in"))


def test_duplicate_path_rejected():
    flow = Dataflow()
    a = flow.add_component("A")
    a.add_path("in", "out", CR())
    with pytest.raises(DataflowError):
        a.add_path("in", "out", CW())


def test_fully_external_stream_rejected():
    flow = Dataflow()
    with pytest.raises(DataflowError):
        flow.add_stream("floating")


def test_validate_catches_unknown_interfaces():
    flow = Dataflow()
    a = flow.add_component("A")
    a.add_path("in", "out", CR())
    flow.add_stream("bad", dst=("A", "ghost"))
    with pytest.raises(DataflowError):
        flow.validate()


def test_validate_catches_unfed_inputs():
    flow = Dataflow()
    a = flow.add_component("A")
    a.add_path("in", "out", CR())
    flow.add_stream("out", src=("A", "out"))
    with pytest.raises(DataflowError):
        flow.validate()


def test_validate_catches_pathless_components():
    flow = Dataflow()
    flow.add_component("empty")
    with pytest.raises(DataflowError):
        flow.validate()


def test_unknown_lookups_raise():
    flow = small_flow()
    with pytest.raises(DataflowError):
        flow.component("ghost")
    with pytest.raises(DataflowError):
        flow.stream("ghost")


def test_seal_annotation_on_stream():
    flow = Dataflow()
    a = flow.add_component("A")
    a.add_path("in", "out", OW("k"))
    stream = flow.add_stream("src", dst=("A", "in"), seal=["k"])
    assert stream.seal_key == frozenset({"k"})
    assert "Seal[k]" in str(stream)


def test_empty_seal_rejected():
    flow = Dataflow()
    flow.add_component("A").add_path("in", "out", CR())
    with pytest.raises(DataflowError):
        flow.add_stream("src", dst=("A", "in"), seal=[])


@pytest.mark.parametrize("endpoint", [("C",), ("C", "in", "x"), "C.in", "Ci", ("C", 1), 7])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_malformed_endpoint_is_a_typed_error_at_declaration(side, endpoint):
    flow = Dataflow()
    flow.add_component("C").add_path("in", "in", CR())
    with pytest.raises(DataflowError, match=f"{side} must be a"):
        flow.add_stream("bad", **{side: endpoint})
    assert flow.streams == ()  # nothing half-registered


def test_list_endpoint_is_normalised_to_a_tuple():
    flow = small_flow()
    stream = flow.add_stream("extra", src=["A", "out"], dst=["B", "in"])
    assert stream.src == ("A", "out") and stream.dst == ("B", "in")
    assert stream in flow.streams_into("B")
    flow.validate()
