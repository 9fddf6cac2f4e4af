"""Whole-dataflow properties: the adjacency index, renaming, rendering.

Two strategies draw small dataflows as *recipes* — plain data, so the same
graph can be declared in a different order or under different names.
``recipes()`` covers self-edges, multi-member cycles, several streams into
one interface, external inputs, sinks and random ``rep`` / ``seal``;
``cyclic_recipes()`` draws the multi-member cycles whose members tie, where
a choice by name would show, and every renaming of them is tried.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OR, OW, Dataflow, analyze
from tests.core.test_properties import annotations, attr_sets

Endpoint = tuple[str, str] | None


@dataclasses.dataclass(frozen=True)
class Recipe:
    """A valid dataflow as data: every input interface is fed."""

    components: tuple[tuple[str, bool], ...]  # (name, rep)
    paths: tuple[tuple[str, str, str, object], ...]  # (component, from, to, annotation)
    streams: tuple[tuple[str, Endpoint, Endpoint, bool, frozenset | None], ...]

    def build(self, order=None, rename=lambda name: name) -> Dataflow:
        """Declare the graph, optionally in ``order`` (indices into
        ``paths + streams``) and under a renaming of components/streams."""
        ops = [("path", p) for p in self.paths] + [("stream", s) for s in self.streams]
        reps = dict(self.components)
        flow = Dataflow("drawn")
        declared = {}

        def end(endpoint: Endpoint) -> Endpoint:
            return None if endpoint is None else (rename(endpoint[0]), endpoint[1])

        for index in order if order is not None else range(len(ops)):
            kind, op = ops[index]
            if kind == "path":
                name, from_iface, to_iface, annotation = op
                if name not in declared:
                    declared[name] = flow.add_component(rename(name), rep=reps[name])
                declared[name].add_path(from_iface, to_iface, annotation)
            else:
                name, src, dst, rep, seal = op
                flow.add_stream(rename(name), src=end(src), dst=end(dst), rep=rep, seal=seal)
        return flow


@st.composite
def recipes(draw) -> Recipe:
    names = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    components = tuple((name, draw(st.booleans())) for name in names)
    paths = []
    for name in names:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(["i0", "i1", "i2"]), st.sampled_from(["o0", "o1"])),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        paths += [(name, i, o, draw(annotations)) for i, o in pairs]
    inputs = sorted({(c, i) for c, i, _, _ in paths})
    outputs = sorted({(c, o) for c, _, o, _ in paths})
    # one feeder per input interface keeps the graph valid; the extras add
    # fan-in on an interface, sinks and more cycles
    wiring = [(draw(st.none() | st.sampled_from(outputs)), dst) for dst in inputs]
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.none() | st.sampled_from(outputs))
        dst = draw(st.sampled_from(inputs) if src is None else st.none() | st.sampled_from(inputs))
        wiring.append((src, dst))
    streams = tuple(
        (f"s{n}", src, dst, draw(st.booleans()), draw(st.none() | attr_sets))
        for n, (src, dst) in enumerate(wiring)
    )
    return Recipe(components, tuple(paths), streams)


_gates = st.frozensets(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=2)


@st.composite
def cyclic_recipes(draw) -> Recipe:
    """Few components, mostly wired into each other: multi-member cycles
    whose members tie on severity (gated ``OR``/``OW`` over a three-attribute
    pool) and are entered by streams sealed on those attributes — the shape
    in which a choice among members by name would show."""
    names = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    components = tuple((name, draw(st.booleans())) for name in names)
    paths = []
    for name in names:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(["i0", "i1"]), st.sampled_from(["o0", "o1"])),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        paths += [(name, i, o, draw(st.sampled_from([OR, OW]))(draw(_gates))) for i, o in pairs]
    inputs = sorted({(c, i) for c, i, _, _ in paths})
    outputs = sorted({(c, o) for c, _, o, _ in paths})
    # three in four inputs are fed by another member, and sealed external
    # streams enter anywhere, a cycle's own interfaces included
    wiring = [
        (
            None
            if draw(st.integers(0, 3)) == 0
            else draw(st.sampled_from([o for o in outputs if o[0] != dst[0]])),
            dst,
        )
        for dst in inputs
    ]
    wiring += [(None, dst) for dst in draw(st.lists(st.sampled_from(inputs), min_size=1, max_size=2))]
    wiring += [(src, None) for src in draw(st.lists(st.sampled_from(outputs), max_size=2))]
    streams = tuple(
        (f"s{n}", src, dst, draw(st.booleans()), draw(_gates) if src is None else None)
        for n, (src, dst) in enumerate(wiring)
    )
    return Recipe(components, tuple(paths), streams)


def _check_index_is_the_scan(flow: Dataflow) -> None:
    components = [c.name for c in flow.components] + ["ghost"]
    for component in components:
        assert flow.streams_into(component) == tuple(
            s for s in flow.streams if s.dst is not None and s.dst[0] == component
        )


@given(st.data())
def test_the_index_is_the_scan_under_any_declaration_order(data):
    recipe = data.draw(recipes())
    count = len(recipe.paths) + len(recipe.streams)
    order = data.draw(st.permutations(range(count)))
    cut = data.draw(st.integers(0, count))
    # a query half-way must not freeze what a later declaration adds
    _check_index_is_the_scan(recipe.build(order[:cut]))
    flow = recipe.build(order)
    _check_index_is_the_scan(flow)
    flow.validate()


# pools whose sort order differs from the drawn names' in every position
_COMPONENT_POOL = ["zeta", "Alpha", "mid", "beta", "Zulu", "b", "a10", "a9"]


@given(st.data())
def test_analysis_is_invariant_under_renaming(data):
    recipe = data.draw(recipes())
    new_components = data.draw(st.permutations(_COMPONENT_POOL))
    new_streams = data.draw(st.permutations([f"t{n:02d}" for n in range(len(recipe.streams))]))
    mapping = {name: new_components[i] for i, (name, _) in enumerate(recipe.components)}
    mapping.update({s[0]: new_streams[i] for i, s in enumerate(recipe.streams)})

    _assert_renaming_alike(recipe, analyze(recipe.build()), mapping)


def _assert_renaming_alike(recipe: Recipe, base, mapping: dict[str, str]) -> None:
    """The analysis of ``recipe`` renamed by ``mapping`` is ``base``, the
    analysis of ``recipe``, with ``mapping`` applied to its names."""
    renamed = analyze(recipe.build(rename=mapping.__getitem__))

    assert {mapping[s]: label for s, label in base.stream_labels.items()} == renamed.stream_labels
    assert {mapping[s]: rep for s, rep in base.stream_rep.items()} == renamed.stream_rep
    assert {(mapping[c], i): record.tainted for (c, i), record in base.outputs.items()} == {
        key: record.tainted for key, record in renamed.outputs.items()
    }
    assert {frozenset(mapping[c] for c in cycle) for cycle in base.cycles} == set(renamed.cycles)
    assert len(base.cycles) == len(renamed.cycles)


@settings(max_examples=150, deadline=None)
@given(cyclic_recipes())
def test_every_component_renaming_labels_alike(recipe):
    """Exhaustive over names: each of the (up to 24) ways to give the
    drawn components four names that sort differently labels alike."""
    base = analyze(recipe.build())
    streams = {s[0]: s[0] for s in recipe.streams}
    members = [name for name, _rep in recipe.components]
    for names in itertools.permutations(["mid", "Zulu", "a9", "beta"], len(members)):
        _assert_renaming_alike(recipe, base, {**streams, **dict(zip(members, names))})

