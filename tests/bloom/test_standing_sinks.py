"""Standing sinks: outputs the boundary skips and writers patch in place.

An output interface that no rule scans and only ``<=`` rules derive is
never cleared and re-asserted (``repro.bloom.runtime`` module docstring).
These tests hold the cases the shortcut could get wrong to explicit
expected contents *and* to the textbook reference, tick for tick: several
writers of one sink retracting in every interleaving, a writer that
retracts in the middle of a step, and the three kinds of transient that
must not be treated as standing.
"""

from __future__ import annotations

import random

import pytest

from repro.bloom.cluster import BloomCluster
from repro.bloom.module import BloomModule
from repro.bloom.rules import Rule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError
from tests.bloom.test_engine_equivalence import _run_differential
from tests.reference import NaiveBloomRuntime


class ThreeWriters(BloomModule):
    """One output derived from two tables that ``<-`` shrinks and from an
    input interface (which retracts its own rows one step later)."""

    def setup(self):
        for name in ("a", "b", "c", "drop_a", "drop_b"):
            self.input_interface(name, ["v"])
        self.table("ta", ["v"])
        self.table("tb", ["v"])
        self.output_interface("out", ["v"])

    def rules(self):
        return [
            self.rule("ta", "<=", self.scan("a")),
            self.rule("tb", "<=", self.scan("b")),
            self.rule("ta", "<-", self.scan("drop_a")),
            self.rule("tb", "<-", self.scan("drop_b")),
            self.rule("out", "<=", self.scan("ta")),
            self.rule("out", "<=", self.scan("tb")),
            self.rule("out", "<=", self.scan("c")),
        ]


def _drive(module, plan):
    """Tick the production runtime and the reference through ``plan``;
    returns the production outputs after checking every tick agrees
    (both engines count every tick, one that changes nothing included)."""
    runtime, naive = BloomRuntime(module), NaiveBloomRuntime(module)
    seen = []
    for step in plan:
        for collection, rows in step.items():
            runtime.insert(collection, rows)
            naive.insert(collection, rows)
        outputs = runtime.tick()
        assert outputs == naive.tick()
        assert runtime.tick_count == naive.tick_count == len(seen) + 1
        assert runtime.has_pending_input == naive.has_pending_input
        for decl in module.declarations:
            assert runtime.read(decl.name) == naive.read(decl.name), decl.name
        seen.append(outputs)
    return seen


def test_a_retracted_row_stays_while_another_writer_derives_it():
    outs = _drive(
        ThreeWriters(),
        [
            {"a": [(1,)], "b": [(1,)]},  # both tables derive (1,)
            {"drop_a": [(1,)]},          # the delete is deferred one step
            {},                          # ta lost (1,); tb still holds it
            {"drop_b": [(1,)]},
            {},                          # now nobody derives it
        ],
    )
    assert [o["out"] for o in outs] == [{(1,)}, {(1,)}, {(1,)}, {(1,)}, set()]


def test_both_writers_retract_the_row_in_the_same_wave():
    outs = _drive(
        ThreeWriters(),
        [
            {"a": [(1,), (2,)], "b": [(1,)]},
            {"drop_a": [(1,)], "drop_b": [(1,)]},
            {},
        ],
    )
    assert [o["out"] for o in outs] == [{(1,), (2,)}, {(1,), (2,)}, {(2,)}]


def test_one_writer_retracts_in_the_wave_another_first_derives_the_row():
    outs = _drive(
        ThreeWriters(),
        [
            {"a": [(7,)]},
            {"drop_a": [(7,)]},
            {"c": [(7,)]},  # ta's writer retracts (7,) as c's writer derives it
            {},             # ...and c, an interface, retracts it a step later
        ],
    )
    assert [o["out"] for o in outs] == [{(7,)}, {(7,)}, {(7,)}, set()]


def test_multi_writer_sinks_match_the_reference_under_random_schedules():
    module = ThreeWriters()
    for seed in range(60):
        rng = random.Random(f"three-writers:{seed}")
        plan = [
            [
                (name, [(rng.randrange(3),) for _ in range(rng.randrange(1, 3))])
                for name in ("a", "b", "c", "drop_a", "drop_b")
                if rng.random() < 0.5
            ]
            for _ in range(10)
        ]
        _run_differential(module, plan)


class MidStepRetraction(BloomModule):
    """A monotone-hinted ``min`` over a table its own stratum grows: the
    writer of ``low`` fires in the second wave of a step and retracts the
    aggregate it derived in the first — which the textbook target, having
    accumulated it already, keeps until the next boundary."""

    def setup(self):
        self.input_interface("inp", ["k", "v"])
        self.table("t", ["k", "v"])
        self.output_interface("low", ["k", "v"])

    def rules(self):
        lowest = self.group_by(
            self.scan("t"), ["k"], [("v", "min", "v")], monotone=True
        )
        return [
            self.rule("t", "<=", self.scan("inp")),
            self.rule("low", "<=", lowest),
        ]


def test_a_row_retracted_mid_step_lingers_until_the_next_boundary():
    outs = _drive(
        MidStepRetraction(),
        [{"inp": [("a", 5)]}, {"inp": [("a", 3)]}, {}, {}],
    )
    assert [o["low"] for o in outs] == [
        {("a", 5)},
        {("a", 5), ("a", 3)},  # wave 1 re-derived the old minimum
        {("a", 3)},
        {("a", 3)},
    ]
    assert outs[3]["low"] is outs[2]["low"]  # unchanged: the same object
    assert outs[2]["low"] is not outs[1]["low"]


def test_mid_step_retractions_match_the_reference_under_random_schedules():
    module = MidStepRetraction()
    for seed in range(40):
        rng = random.Random(f"mid-step:{seed}")
        plan = [
            [("inp", [(rng.choice("ab"), rng.randrange(6))])]
            if rng.random() < 0.7 else []
            for _ in range(8)
        ]
        _run_differential(module, plan)


# ----------------------------------------------------------------------
# the transients that are NOT standing
# ----------------------------------------------------------------------
class ScannedOutput(BloomModule):
    """An output that a rule reads.  Module validation refuses this, so
    the test disables it: the runtime must not depend on that refusal."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("ever", ["v"])
        self.output_interface("out", ["v"])
        self.output_interface("absent", ["v"])

    def rules(self):
        return [
            self.rule("ever", "<=", self.scan("inp")),
            self.rule("out", "<=", self.scan("inp")),
            # rows seen before that ``out`` does not hold right now
            self.rule(
                "absent", "<=",
                self.notin(self.scan("ever"), self.scan("out"), on=[("v", "v")]),
            ),
        ]

    def _validate(self):
        pass


class DeferredIntoOutput(BloomModule):
    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("t", ["v"])
        self.output_interface("out", ["v"])

    def rules(self):
        return [
            self.rule("t", "<=", self.scan("inp")),
            self.rule("out", "<=", self.scan("t")),
            self.rule("out", "<+", self.project(
                self.calc(self.scan("inp"), "w", lambda v: v + 100, ["v"]),
                [("w", "v")],
            )),
        ]


def test_an_output_a_rule_scans_still_clears_and_reasserts():
    module = ScannedOutput()
    runtime = BloomRuntime(module)
    assert "out" not in runtime._standing and "absent" in runtime._standing
    outs = _drive(module, [{"inp": [(1,)]}, {"inp": [(2,)]}, {}])
    # the reader of ``out`` saw (1,) leave it at the second boundary
    assert [o["out"] for o in outs] == [{(1,)}, {(2,)}, set()]
    assert [o["absent"] for o in outs] == [set(), {(1,)}, {(1,), (2,)}]


def test_an_output_a_deferred_rule_targets_still_clears_and_reasserts():
    module = DeferredIntoOutput()
    assert "out" not in BloomRuntime(module)._standing
    outs = _drive(module, [{"inp": [(1,)]}, {}, {}])
    # (101,) arrives through the boundary for one step, then is cleared
    assert [o["out"] for o in outs] == [{(1,)}, {(1,), (101,)}, {(1,)}]


def test_transients_that_take_external_input_are_never_standing():
    runtime = BloomRuntime(ThreeWriters())
    assert runtime._standing == {"out"}
    with pytest.raises(BloomError, match="cannot insert into output"):
        runtime.insert("out", [(1,)])


# ----------------------------------------------------------------------
# duplicate deliveries, output identity, the arity check
# ----------------------------------------------------------------------
class TableToOutput(BloomModule):
    def __init__(self, keep) -> None:
        self.keep = keep
        super().__init__()

    def setup(self):
        self.table("t", ["v"])
        self.output_interface("out", ["v"])

    def rules(self):
        kept = self.select(self.scan("t"), lambda r: self.keep, refs=["v"])
        return [self.rule("out", "<=", kept)]


@pytest.mark.parametrize("keep", [True, False], ids=["full", "empty"])
def test_a_duplicate_delivery_is_a_real_tick_whatever_the_standing_sink_holds(keep):
    """A duplicated delivery is a timestep whether or not the standing
    sink holds rows: both engines count it and end it in the same state."""
    outs = _drive(TableToOutput(keep), [{"t": [(1,)]}, {"t": [(1,)]}])
    assert outs[-1] == {"out": {(1,)} if keep else set()}


def test_tick_returns_the_same_object_for_an_unchanged_output():
    runtime = BloomRuntime(TableToOutput(keep=True))
    runtime.insert("t", [(1,)])
    first = runtime.tick()
    second = runtime.tick()
    assert second["out"] is first["out"] == {(1,)}
    runtime.insert("t", [(2,)])
    third = runtime.tick()
    assert third["out"] == {(1,), (2,)} and third["out"] is not first["out"]
    assert first["out"] == {(1,)}  # a handed-out snapshot is never mutated
    assert runtime.tick()["out"] is third["out"]


def test_a_node_logs_and_traces_each_output_row_once():
    cluster = BloomCluster(seed=1)
    node = cluster.add_node("n", TableToOutput(keep=True))
    node.insert("t", [(1,)])
    cluster.run()
    node.insert("t", [(1,)])  # a real tick whose output is the same object
    node.insert("t", [(2,)])
    cluster.run()
    assert node.runtime.tick_count >= 2
    assert node.output_history("out") == node.outputs_log["out"] == {(1,), (2,)}
    assert sorted(cluster.trace.data_series("output:out")) == [(1,), (2,)]


def test_a_rule_of_the_wrong_width_is_refused_when_the_runtime_is_built():
    class Narrow(BloomModule):
        def setup(self):
            self.input_interface("inp", ["a", "b"])
            self.output_interface("out", ["a"])

        def rules(self):
            # built past ``BloomModule.rule``, which would refuse it too
            return [Rule("out", "<=", self.scan("inp"))]

    with pytest.raises(BloomError, match=r"derives \('a', 'b'\)"):
        BloomRuntime(Narrow())
