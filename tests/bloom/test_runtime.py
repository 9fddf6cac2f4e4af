"""Unit tests for the single-node Bloom timestep runtime."""

from __future__ import annotations

import pytest

from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError
from tests.bloom.test_standing_sinks import _drive
from tests.reference import NaiveBloomRuntime

# semantics pinned on the production runtime and on the naive reference
both_engines = pytest.mark.parametrize(
    "runtime_cls", [BloomRuntime, NaiveBloomRuntime], ids=["incremental", "naive"]
)


class PathModule(BloomModule):
    """Transitive closure: a classic fixpoint program."""

    def setup(self):
        self.input_interface("edge", ["src", "dst"])
        self.output_interface("reach", ["src", "dst"])
        self.table("link", ["src", "dst"])
        self.table("path", ["src", "dst"])

    def rules(self):
        hop = self.join(
            self.scan("link"),
            self.project(self.scan("path"), [("src", "mid"), ("dst", "far")]),
            on=[("dst", "mid")],
        )
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("path", "<=", self.scan("link")),
            self.rule("path", "<=", self.project(hop, ["src", ("far", "dst")])),
            self.rule("reach", "<=", self.scan("path")),
        ]


class DeferredModule(BloomModule):
    def setup(self):
        self.input_interface("inp", ["v"])
        self.output_interface("out", ["v"])
        self.table("seen", ["v"])
        self.table("old", ["v"])

    def rules(self):
        return [
            self.rule("seen", "<=", self.scan("inp")),
            self.rule("old", "<+", self.scan("seen")),   # deferred copy
            self.rule("seen", "<-", self.scan("old")),   # delete what aged
            self.rule("out", "<=", self.scan("seen")),
        ]


def test_transitive_closure_reaches_fixpoint_in_one_tick():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2), (2, 3), (3, 4)])
    outputs = runtime.tick()
    assert outputs["reach"] == {
        (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
    }


def test_tables_persist_and_scratches_clear():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2)])
    runtime.tick()
    # next tick: input interface cleared, table retained
    outputs = runtime.tick()
    assert runtime.read("edge") == frozenset()
    assert runtime.read("link") == {(1, 2)}
    assert outputs["reach"] == {(1, 2)}


def test_incremental_input_extends_closure():
    runtime = BloomRuntime(PathModule())
    runtime.insert("edge", [(1, 2)])
    runtime.tick()
    runtime.insert("edge", [(2, 3)])
    outputs = runtime.tick()
    assert (1, 3) in outputs["reach"]


def test_deferred_and_delete_apply_next_tick():
    runtime = BloomRuntime(DeferredModule())
    runtime.insert("inp", [(1,)])
    out1 = runtime.tick()
    assert out1["out"] == {(1,)}
    # tick 2: old <+ got (1,), so seen loses it at tick 3
    out2 = runtime.tick()
    assert out2["out"] == {(1,)}
    out3 = runtime.tick()
    assert out3["out"] == frozenset()


def test_insert_arity_checked():
    runtime = BloomRuntime(PathModule())
    with pytest.raises(BloomError):
        runtime.insert("edge", [(1, 2, 3)])


def test_insert_into_output_rejected():
    runtime = BloomRuntime(PathModule())
    with pytest.raises(BloomError):
        runtime.insert("reach", [(1, 2)])


def test_async_without_transport_raises():
    class Chatty(BloomModule):
        def setup(self):
            self.input_interface("inp", ["addr", "v"])
            self.channel("chan", ["@addr", "v"])

        def rules(self):
            return [self.rule("chan", "<~", self.scan("inp"))]

    runtime = BloomRuntime(Chatty())
    runtime.insert("inp", [("n1", 7)])
    with pytest.raises(BloomError):
        runtime.tick()


def test_async_rule_hands_tuples_to_transport():
    sent = []

    class Chatty(BloomModule):
        def setup(self):
            self.input_interface("inp", ["addr", "v"])
            self.channel("chan", ["@addr", "v"])

        def rules(self):
            return [self.rule("chan", "<~", self.scan("inp"))]

    runtime = BloomRuntime(
        Chatty(), on_channel_send=lambda chan, addr, row: sent.append((chan, addr, row))
    )
    runtime.insert("inp", [("n1", 7), ("n2", 8)])
    runtime.tick()
    assert sorted(sent) == [("chan", "n1", ("n1", 7)), ("chan", "n2", ("n2", 8))]


def test_has_pending_input_reflects_queues():
    runtime = BloomRuntime(PathModule())
    assert not runtime.has_pending_input
    runtime.insert("edge", [(1, 2)])
    assert runtime.has_pending_input
    runtime.tick()
    assert not runtime.has_pending_input


class ReplaceModule(BloomModule):
    """Defers both an insert and a delete of the same tuple."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("keep", ["v"])
        self.table("t", ["v"])

    def rules(self):
        return [
            self.rule("keep", "<=", self.scan("inp")),
            self.rule("t", "<+", self.scan("keep")),  # re-insert every step
            self.rule("t", "<-", self.scan("keep")),  # and delete it too
        ]


@both_engines
def test_simultaneous_deferred_insert_and_delete(runtime_cls):
    """Bud's boundary order: deletes apply before inserts, insert wins.

    A tuple that is both ``<+``-inserted and ``<-``-deleted at the same
    timestep boundary survives (the delete removes the old copy, the
    insert puts it back) — the semantics the module docstring documents.
    """
    runtime = runtime_cls(ReplaceModule())
    runtime.insert("inp", [(1,)])
    runtime.tick()
    assert runtime.read("t") == frozenset()      # nothing pending yet
    runtime.tick()
    assert runtime.read("t") == {(1,)}           # insert+delete: survives
    runtime.tick()
    assert runtime.read("t") == {(1,)}           # and keeps surviving

    # direct pending-queue race, without rules: same outcome
    direct = runtime_cls(PathModule())
    direct.insert("edge", [(7, 8)])
    direct._pending_deletes.setdefault("edge", set()).add((7, 8))
    direct.tick()
    assert direct.read("edge") == {(7, 8)}


@both_engines
def test_deferred_delete_of_still_derivable_row_is_restored(runtime_cls):
    """A ``<-`` of a row an instantaneous rule still derives is undone
    by the next tick's fixpoint (the naive engine re-asserts every rule;
    the incremental engine must match)."""

    class Underiveable(BloomModule):
        def setup(self):
            self.input_interface("inp", ["v"])
            self.table("src", ["v"])
            self.table("dst", ["v"])
            self.table("kill", ["v"])

        def rules(self):
            return [
                self.rule("src", "<=", self.scan("inp")),
                self.rule("dst", "<=", self.scan("src")),   # still derivable
                self.rule("kill", "<+", self.scan("src")),
                self.rule("dst", "<-", self.scan("kill")),  # deleted anyway
            ]

    runtime = runtime_cls(Underiveable())
    runtime.insert("inp", [(3,)])
    runtime.tick()
    assert runtime.read("dst") == {(3,)}
    for _ in range(3):
        runtime.tick()
        # the boundary delete removes (3,), the fixpoint re-derives it
        assert runtime.read("dst") == {(3,)}


class TableSink(BloomModule):
    """No output interfaces: only the table shows what a tick did."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("t", ["v"])

    def rules(self):
        return [self.rule("t", "<=", self.scan("inp"))]


@both_engines
def test_a_duplicate_insert_is_a_tick_that_changes_nothing(runtime_cls):
    """Re-delivering rows the table already holds is a timestep like any
    other: both engines count it and end it in the same state."""
    runtime = runtime_cls(TableSink())
    runtime.insert("inp", [(1,)])
    runtime.tick()  # transient input pending: a real tick
    runtime.tick()  # drain the input interface: every transient empty now
    runtime.insert("t", [(2,)])  # a novel row
    runtime.tick()
    assert runtime.tick_count == 3
    runtime.insert("t", [(1,), (2,)])  # rows the table already holds
    assert runtime.tick() == {}
    assert runtime.tick_count == 4
    assert not runtime.has_pending_input
    assert runtime.read("t") == {(1,), (2,)}
    # ...and a subsequent change still lands
    runtime.insert("t", [(3,)])
    runtime.tick()
    assert runtime.read("t") == {(1,), (2,), (3,)}
    assert runtime.tick_count == 5


def test_end_of_step_rules_tick_alike_without_input():
    _drive(DeferredModule(), [{}, {}, {}])  # <+ / <- rules emit every tick


class CountingReport(BloomModule):
    """The CAMPAIGN report's shape (scan -> group-by -> select -> project
    -> join) with a predicate and a computed column that count their calls."""

    def __init__(self):
        self.predicate_calls = 0
        self.calc_calls = 0
        super().__init__()

    def setup(self):
        self.input_interface("click", ["campaign", "id", "uid"])
        self.input_interface("request", ["reqid", "id"])
        self.output_interface("response", ["reqid", "id", "score"])
        self.table("clicks", ["campaign", "id", "uid"])
        self.table("requests", ["reqid", "id"])

    def _poor(self, row):
        self.predicate_calls += 1
        return row["cnt"] < 1000

    def _score(self, cnt):
        self.calc_calls += 1
        return cnt // 100

    def rules(self):
        counts = self.group_by(
            self.scan("clicks"), ["campaign", "id"], [("cnt", "count", None)]
        )
        poor = self.select(counts, self._poor, refs=["cnt"])
        answers = self.calc(poor, "score", self._score, ["cnt"]).project("id", "score")
        return [
            self.rule("clicks", "<=", self.scan("click")),
            self.rule("requests", "<=", self.scan("request")),
            self.rule(
                "response",
                "<=",
                self.join(self.scan("requests"), answers, on=[("id", "id")]),
            ),
        ]


def test_work_is_proportional_to_the_delta_as_counts(monkeypatch):
    """The incremental property, pinned without a timing: over 5 000
    logged clicks, one more click re-examines one group, and a tick that
    changes nothing a rule scans runs no rule body at all."""
    from repro.bloom import runtime as runtime_module
    from repro.bloom.ast import compile_rule

    bodies_run = []

    def counting_compile(root):
        step = compile_rule(root)

        def counted(base):
            bodies_run.append(root)
            return step(base)

        return counted

    monkeypatch.setattr(runtime_module, "compile_rule", counting_compile)
    module = CountingReport()
    runtime = BloomRuntime(module)

    def counts_of(tick_input):
        module.predicate_calls = module.calc_calls = 0
        del bodies_run[:]
        for collection, rows in tick_input:
            runtime.insert(collection, rows)
        runtime.tick()
        return module.predicate_calls, module.calc_calls, len(bodies_run)

    # 20 groups of 250 clicks, two per ad: every rule materializes once
    clicks = [(f"c{n % 20}", f"ad{n % 10}", f"u{n}") for n in range(5000)]
    requests = [(f"q{ad}", f"ad{ad}") for ad in range(10)]
    assert counts_of([("request", requests), ("click", clicks)]) == (20, 20, 3)
    loaded = runtime.read("response")
    assert loaded == {(f"q{ad}", f"ad{ad}", 2) for ad in range(10)}

    # draining the two input interfaces is a change their rules scan
    assert counts_of([]) == (0, 0, 2)
    # one more click: the old and the new row of its one group, each
    # through the predicate and the computed column once; the request
    # rule does not run
    assert counts_of([("click", [("c3", "ad3", "new")])]) == (2, 2, 2)
    assert counts_of([]) == (0, 0, 1)  # the click interface drains...
    # ...and then a tick changes nothing any rule scans: no body runs,
    # though the transient response is cleared and re-asserted from cache
    assert counts_of([]) == (0, 0, 0)
    assert runtime.read("response") == loaded
    # a new request runs the join, never the aggregate side
    assert counts_of([("request", [("q-new", "ad3")])]) == (0, 0, 2)
    assert runtime.read("response") == loaded | {("q-new", "ad3", 2)}
