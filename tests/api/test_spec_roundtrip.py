"""Spec round-trip: ``loads_spec(dump_spec(df))`` has ``df``'s signature.

Two sweeps pin the serializer against the builder path:

* every registered app, every strategy — the dataflows the API actually
  derives (topology-extracted and white-box-analyzed alike) survive a
  YAML round trip bit-for-bit;
* a hypothesis-generated family of chain dataflows covering the corners
  the apps do not reach: label overrides, replicated streams, starred
  gates, dotted component names, and functional dependencies.
"""

from __future__ import annotations

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import get_app
from repro.core import Dataflow, FDSet, dump_spec, loads_spec
from repro.core.annotations import parse_annotation
from repro.core.labels import Label, LabelKind
from tests.reference.compare import signature

APPS_AND_STRATEGIES = [
    (name, strategy)
    for name in ("wordcount", "adnet", "kvs")
    for strategy in get_app(name).strategies
]


def fd_signature(fds: FDSet) -> set[str]:
    return {str(fd) for fd in fds}


@pytest.mark.parametrize("app_name,strategy", APPS_AND_STRATEGIES)
def test_registered_app_specs_round_trip(app_name, strategy):
    app = get_app(app_name)
    dataflow = app.dataflow(strategy)
    fds = app.fds()
    loaded, loaded_fds = loads_spec(dump_spec(dataflow, fds))
    assert signature(loaded) == signature(dataflow), (
        f"{app_name}/{strategy}: round-tripped dataflow drifted"
    )
    assert fd_signature(loaded_fds) == fd_signature(fds)


def test_the_committed_example_spec_is_the_wordcount_declaration():
    """``examples/wordcount.yaml``, the spec CI drives through ``analyze``,
    ``plan`` and ``lint``, is what the registered app's ``spec()`` dumps."""
    path = Path(__file__).resolve().parents[2] / "examples" / "wordcount.yaml"
    assert path.read_text() == get_app("wordcount").spec()


def test_app_spec_yaml_reanalyzes_identically():
    """The dumped spec is a faithful substitute for the app's dataflow."""
    for app_name, strategy in APPS_AND_STRATEGIES:
        app = get_app(app_name)
        dataflow, fds = loads_spec(app.spec(strategy))
        from repro.core import analyze

        direct = app.analyze(strategy)
        via_yaml = analyze(dataflow, fds)
        assert {n: str(l) for n, l in via_yaml.sink_labels.items()} == {
            n: str(l) for n, l in direct.sink_labels.items()
        }, f"{app_name}/{strategy}"


# ----------------------------------------------------------------------
# hypothesis chain-dataflow family
# ----------------------------------------------------------------------
_ATTRS = ("a", "b", "key", "batch")

annotation_st = st.one_of(
    st.just(("CR", None)),
    st.just(("CW", None)),
    st.tuples(
        st.sampled_from(("OR", "OW")),
        st.one_of(
            st.none(),  # starred gate
            st.lists(st.sampled_from(_ATTRS), min_size=1, max_size=3, unique=True),
        ),
    ),
)

stream_label_st = st.one_of(
    st.none(),
    st.sampled_from((LabelKind.ASYNC, LabelKind.RUN, LabelKind.INST, LabelKind.DIVERGE)),
)

chain_st = st.tuples(
    st.lists(annotation_st, min_size=1, max_size=4),  # one path per component
    st.booleans(),  # dotted component names
    st.lists(st.booleans(), min_size=4, max_size=4),  # rep flags, cycled
    st.one_of(
        st.none(), st.lists(st.sampled_from(_ATTRS), min_size=1, max_size=2, unique=True)
    ),  # seal on the external input
    stream_label_st,  # label override on a second external input
    st.lists(  # functional dependencies
        st.tuples(
            st.lists(st.sampled_from(_ATTRS), min_size=1, max_size=2, unique=True),
            st.lists(st.sampled_from(_ATTRS), min_size=1, max_size=2, unique=True),
            st.booleans(),
        ),
        max_size=3,
    ),
)


def build_chain(spec) -> tuple[Dataflow, FDSet]:
    annotations, dotted, reps, seal, label_kind, fd_entries = spec
    flow = Dataflow("chain")
    names = [
        f"C.{index}" if dotted and index == 0 else f"C{index}"
        for index in range(len(annotations))
    ]
    for index, ((label, subscript), name) in enumerate(zip(annotations, names)):
        component = flow.add_component(name, rep=reps[index % len(reps)])
        component.add_path("in", "out", parse_annotation(label, subscript))
    flow.add_stream("ingress", dst=(names[0], "in"), seal=seal)
    if label_kind is not None:
        # a second, labeled external input into the same interface
        flow.add_stream("side", dst=(names[0], "in"), label=Label(label_kind))
    for index in range(len(names) - 1):
        flow.add_stream(
            f"s{index}",
            src=(names[index], "out"),
            dst=(names[index + 1], "in"),
            rep=index % 2 == 1,
        )
    flow.add_stream("egress", src=(names[-1], "out"))
    fds = FDSet()
    for by, determines, injective in fd_entries:
        fds.add(by, determines, injective=injective)
    flow.validate()
    return flow, fds


@settings(max_examples=60, deadline=None)
@given(chain_st)
def test_generated_dataflows_round_trip(spec):
    flow, fds = build_chain(spec)
    loaded, loaded_fds = loads_spec(dump_spec(flow, fds))
    assert signature(loaded) == signature(flow)
    assert fd_signature(loaded_fds) == fd_signature(fds)


def test_label_override_round_trips():
    """Drift fixed: dump_spec used to silently drop stream label overrides."""
    flow = Dataflow("labeled")
    flow.add_component("C").add_path("in", "out", parse_annotation("CR"))
    flow.add_stream("ingress", dst=("C", "in"), label=Label(LabelKind.RUN))
    flow.add_stream("egress", src=("C", "out"))
    loaded, _ = loads_spec(dump_spec(flow))
    assert signature(loaded) == signature(flow)
    assert loaded.stream("ingress").label == Label(LabelKind.RUN)


def test_dotted_component_name_round_trips():
    """Drift fixed: 'Comp.x.iface' endpoints used to split at the wrong dot."""
    flow = Dataflow("dotted")
    flow.add_component("svc.v2").add_path("in", "out", parse_annotation("CW"))
    flow.add_stream("ingress", dst=("svc.v2", "in"))
    flow.add_stream("egress", src=("svc.v2", "out"))
    loaded, _ = loads_spec(dump_spec(flow))
    assert signature(loaded) == signature(flow)


def test_graph_rejects_a_sealed_stream_with_a_label_override():
    """The builder enforces what the spec format cannot express, so every
    constructible dataflow stays round-trippable."""
    from repro.errors import DataflowError

    flow = Dataflow("conflict")
    flow.add_component("C").add_path("in", "out", parse_annotation("CR"))
    with pytest.raises(DataflowError, match="either a label override or a seal"):
        flow.add_stream(
            "ingress", dst=("C", "in"), seal=["k"], label=Label(LabelKind.RUN)
        )


def test_graph_rejects_internal_and_keyed_stream_labels():
    """Internal/keyed kinds would dump to YAML that loads_spec rejects."""
    from repro.core.labels import NDRead, Seal, Taint
    from repro.errors import DataflowError

    for label in (Taint(), NDRead("k"), Seal(["k"])):
        flow = Dataflow("bad-label")
        flow.add_component("C").add_path("in", "out", parse_annotation("CR"))
        with pytest.raises(DataflowError, match="not a valid stream label"):
            flow.add_stream("ingress", dst=("C", "in"), label=label)


def test_label_and_seal_are_mutually_exclusive():
    from repro.errors import SpecError

    text = """
name: bad
components:
  C:
    annotations: [{ from: i, to: o, label: CR }]
streams:
  - { name: s, to: C.i, seal: [k], label: Run }
  - { name: out, from: C.o }
"""
    with pytest.raises(SpecError):
        loads_spec(text)


def test_unknown_stream_label_is_rejected():
    from repro.errors import SpecError

    text = """
name: bad
components:
  C:
    annotations: [{ from: i, to: o, label: CR }]
streams:
  - { name: s, to: C.i, label: Sealish }
  - { name: out, from: C.o }
"""
    with pytest.raises(SpecError):
        loads_spec(text)
