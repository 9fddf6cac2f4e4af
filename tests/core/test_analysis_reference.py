"""The label analysis is its reference, to the byte.

``tests/reference/analysis_ref.py`` keeps the pass that hashed string
tuples and derived every step afresh.  The production pass numbers the
graph once and derives each distinct step once per call; on every
registered app and strategy, the linearity shapes and drawn flows from
both generators it must return the same labels, replication flags,
cycles and output records, in the same insertion orders.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import get_app, iter_apps
from repro.core import analyze
from tests.core.test_dataflow_properties import cyclic_recipes, recipes
from tests.core.test_linearity import chain, cycles, fan, hub, wide
from tests.reference import analysis_ref


def assert_same_analysis(flow, fds=None) -> None:
    new, ref = analyze(flow, fds), analysis_ref.analyze(flow, fds)
    assert list(new.stream_labels.items()) == list(ref.stream_labels.items())
    assert list(new.stream_rep.items()) == list(ref.stream_rep.items())
    assert new.cycles == ref.cycles
    assert list(new.outputs) == list(ref.outputs)
    for key, record in new.outputs.items():
        expected = ref.outputs[key]
        assert record.steps == expected.steps, key
        for field in ("labels", "added", "merged", "notes"):
            assert getattr(record.reconciliation, field) == getattr(
                expected.reconciliation, field
            ), (key, field)
        assert (record.replicated, record.collapsed) == (expected.replicated, expected.collapsed)


@pytest.mark.parametrize(
    "app_name,strategy",
    [(app.name, strategy) for app in iter_apps() for strategy in app.strategies],
)
def test_every_registered_app_and_strategy(app_name, strategy):
    app = get_app(app_name)
    assert_same_analysis(app.dataflow(strategy), app.fds())


@pytest.mark.parametrize("shape", [chain, fan, cycles, hub, wide])
@pytest.mark.parametrize("size", [100, 400])
def test_the_linearity_shapes(shape, size):
    assert_same_analysis(shape(size, random.Random(f"{shape.__name__}:{size}")))


@settings(max_examples=150, deadline=None)
@given(st.one_of(recipes(), cyclic_recipes()))
def test_drawn_flows(recipe):
    assert_same_analysis(recipe.build())
