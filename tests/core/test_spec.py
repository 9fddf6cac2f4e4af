"""Unit tests for spec-file parsing and serialization."""

from __future__ import annotations

import pytest
import yaml

from repro.core import analyze, dump_spec, loads_spec
from repro.core.annotations import AnnotationKind
from repro.errors import SpecError

WORDCOUNT = """
name: wordcount
components:
  Splitter:
    annotations:
      - { from: tweets, to: words, label: CR }
  Count:
    annotations:
      - { from: words, to: counts, label: OW, subscript: [word, batch] }
  Commit:
    annotations:
      - { from: counts, to: db, label: CW }
streams:
  - { name: tweets, to: Splitter.tweets, seal: [batch] }
  - { name: words, from: Splitter.words, to: Count.words }
  - { name: counts, from: Count.counts, to: Commit.counts }
  - { name: db, from: Commit.db }
fds:
  - { determines: [symbol], by: [company], injective: true }
"""


def test_parse_wordcount_spec():
    dataflow, fds = loads_spec(WORDCOUNT)
    assert dataflow.name == "wordcount"
    assert len(dataflow.components) == 3
    count = dataflow.component("Count")
    (path,) = count.paths
    assert path.annotation.kind is AnnotationKind.OW
    assert path.annotation.gate == frozenset({"word", "batch"})
    assert dataflow.stream("tweets").seal_key == frozenset({"batch"})
    assert fds.injectively_determines({"company"}, {"symbol"})


def test_parsed_spec_analyzes_like_programmatic_flow():
    dataflow, fds = loads_spec(WORDCOUNT)
    result = analyze(dataflow, fds)
    assert str(result.label_of("db")) == "Async"


def test_rep_flag_on_component_and_stream():
    text = """
name: reps
components:
  A:
    rep: true
    annotations: [{ from: i, to: o, label: CW }]
streams:
  - { name: i, to: A.i, rep: true }
  - { name: o, from: A.o }
"""
    dataflow, _ = loads_spec(text)
    assert dataflow.component("A").rep
    assert dataflow.stream("i").rep


def test_single_annotation_mapping_accepted():
    text = """
components:
  A:
    annotation: { from: i, to: o, label: CR }
streams:
  - { name: i, to: A.i }
  - { name: o, from: A.o }
"""
    dataflow, _ = loads_spec(text)
    assert len(dataflow.component("A").paths) == 1


def test_endpoint_pair_syntax_accepted():
    text = """
components:
  A:
    annotations: [{ from: i, to: o, label: CR }]
streams:
  - { name: i, to: [A, i] }
  - { name: o, from: [A, o] }
"""
    dataflow, _ = loads_spec(text)
    assert dataflow.stream("i").dst == ("A", "i")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[]", "mapping"),
        ("components: {}\nstreams: []", "components"),
        ("components: {A: {annotations: []}}\nstreams: [{name: s}]", "annotations"),
        (
            "components: {A: {annotations: [{from: i, to: o}]}}\n"
            "streams: [{name: i, to: A.i}]",
            "from/to/label",
        ),
        (
            "components: {A: {annotations: [{from: i, to: o, label: CR}]}}\n"
            "streams: [{to: A.i}]",
            "name",
        ),
        (
            "components: {A: {annotations: [{from: i, to: o, label: CR}]}}\n"
            "streams: [{name: i, to: badendpoint}]",
            "Component.interface",
        ),
        ("components: {A: {annotations: [{from: i, to: o, label: CR}]}}\n"
         "streams: [{name: i, to: A.i, seal: k}]", "seal"),
        (": not yaml :\n  - ][", "YAML"),
    ],
)
def test_malformed_specs_rejected(text, fragment):
    with pytest.raises(SpecError) as excinfo:
        loads_spec(text)
    assert fragment.lower() in str(excinfo.value).lower()


def test_dump_round_trips():
    dataflow, fds = loads_spec(WORDCOUNT)
    text = dump_spec(dataflow, fds)
    reparsed, refds = loads_spec(text)
    assert {c.name for c in reparsed.components} == {
        c.name for c in dataflow.components
    }
    assert {s.name for s in reparsed.streams} == {s.name for s in dataflow.streams}
    assert reparsed.stream("tweets").seal_key == frozenset({"batch"})
    assert refds.injectively_determines({"company"}, {"symbol"})
    result = analyze(reparsed, refds)
    assert str(result.label_of("db")) == "Async"


def test_the_c_loader_and_the_python_loader_parse_every_dumped_spec_alike():
    """``loads_spec`` prefers libyaml's loader; the documents it yields
    must be the pure-Python loader's, for every spec ``dump_spec`` writes."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    from repro.api import app_names, get_app
    from repro.core import CW, OW, Dataflow
    from repro.core import spec as spec_module

    assert spec_module._loader() is yaml.CSafeLoader
    texts = [
        get_app(name).spec(strategy)
        for name in app_names()
        for strategy in get_app(name).strategies
    ]
    chain = Dataflow("chain-800")
    for i in range(800):
        gated = OW("k", f"g{i}") if i % 3 == 0 else CW()
        chain.add_component(f"c{i}", rep=i % 7 == 0).add_path("in", "out", gated)
    chain.add_stream("src", dst=("c0", "in"), seal=["k"])
    for i in range(799):
        chain.add_stream(f"s{i}", src=(f"c{i}", "out"), dst=(f"c{i+1}", "in"))
    chain.add_stream("sink", src=("c799", "out"))
    texts.append(dump_spec(chain))
    assert len(texts) > 10
    for text in texts:
        c_doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert c_doc == yaml.load(text, Loader=yaml.SafeLoader)
        assert isinstance(c_doc, dict) and c_doc["components"]
    reparsed, _ = loads_spec(texts[-1])
    assert len(reparsed.components) == 800 and len(reparsed.streams) == 801
