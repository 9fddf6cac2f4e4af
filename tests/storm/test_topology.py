"""Unit tests for topology declaration."""

from __future__ import annotations

import pytest

from repro.errors import StormError
from repro.storm import Bolt, Fields, Spout, StormCluster, TopologyBuilder


class DummySpout(Spout):
    output_fields = Fields("x")

    def next_batch(self, batch_id):
        return None


class DummyBolt(Bolt):
    output_fields = Fields("y")

    def execute(self, tup, emit):
        emit((tup[0],))


def test_builder_wires_groupings():
    builder = TopologyBuilder("t")
    builder.set_spout("src", DummySpout)
    builder.set_bolt("a", DummyBolt, parallelism=2).shuffle_grouping("src")
    builder.set_bolt("b", DummyBolt).fields_grouping("a", "y")
    topology = builder.build()
    assert topology.spouts == ("src",)
    assert set(topology.bolts) == {"a", "b"}
    consumers = topology.consumers_of("a")
    assert consumers[0][0] == "b"
    assert consumers[0][1].mode == "fields"
    assert consumers[0][1].fields == ("y",)


def test_duplicate_component_rejected():
    builder = TopologyBuilder()
    builder.set_spout("x", DummySpout)
    with pytest.raises(StormError):
        builder.set_bolt("x", DummyBolt)


def test_bolt_without_grouping_rejected():
    builder = TopologyBuilder()
    builder.set_spout("src", DummySpout)
    builder.set_bolt("lonely", DummyBolt)
    with pytest.raises(StormError):
        builder.build()


def test_unknown_grouping_source_rejected():
    builder = TopologyBuilder()
    builder.set_spout("src", DummySpout)
    builder.set_bolt("a", DummyBolt).shuffle_grouping("ghost")
    with pytest.raises(StormError):
        builder.build()


def test_fields_grouping_requires_fields():
    from repro.storm.topology import Grouping

    with pytest.raises(StormError):
        Grouping("src", "fields")


@pytest.mark.parametrize("mode", ["teleport", "global"])
def test_unknown_grouping_mode_rejected(mode):
    """Shuffle and fields are the two groupings a topology can declare."""
    from repro.storm.topology import Grouping

    with pytest.raises(StormError):
        Grouping("src", mode)


def test_parallelism_must_be_positive():
    builder = TopologyBuilder()
    with pytest.raises(StormError):
        builder.set_spout("src", DummySpout, parallelism=0)


def test_fields_schema_projection():
    fields = Fields("a", "b", "c")
    assert fields.projector(("c", "a"))((1, 2, 3)) == (3, 1)
    with pytest.raises(StormError):
        fields.index_of("z")
    with pytest.raises(StormError):
        Fields("a", "a")


def test_projector_resolves_positions_once_and_always_yields_a_tuple():
    fields = Fields("a", "b", "c")
    assert fields.projector(("c", "a"))((1, 2, 3)) == (3, 1)
    assert fields.projector(("b",))((1, 2, 3)) == (2,)  # a routing key, not a scalar
    with pytest.raises(StormError, match="unknown field 'z'"):
        fields.projector(("a", "z"))


def test_fields_grouping_on_undeclared_field_fails_when_the_cluster_is_built():
    """Not from inside the event loop at the first routed tuple — or never,
    if that edge happens to carry none (DummySpout emits nothing)."""
    builder = TopologyBuilder()
    builder.set_spout("src", DummySpout)
    builder.set_bolt("a", DummyBolt).shuffle_grouping("src")
    builder.set_bolt("b", DummyBolt).fields_grouping("a", "yy")
    topology = builder.build()  # validate() checks components, not fields
    with pytest.raises(StormError, match=r"unknown field 'yy' \(have \('y',\)\)"):
        StormCluster(topology)


def test_each_task_builds_its_component_exactly_once():
    """The router reads ``output_fields`` off the instance the task built;
    it does not run the user's factory a second time per consumer."""
    built: list[str] = []

    class CountedSpout(DummySpout):
        def __init__(self):
            built.append("src")

    class CountedBolt(DummyBolt):
        def __init__(self):
            built.append("bolt")

    builder = TopologyBuilder()
    builder.set_spout("src", CountedSpout, parallelism=2)
    builder.set_bolt("a", CountedBolt, parallelism=2).shuffle_grouping("src")
    builder.set_bolt("b", CountedBolt, parallelism=3).fields_grouping("a", "y")
    StormCluster(builder.build())
    assert sorted(built) == ["bolt"] * 5 + ["src"] * 2
