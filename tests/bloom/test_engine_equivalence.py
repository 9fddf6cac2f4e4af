"""Differential tests: the incremental runtime against the naive reference.

The semi-naive :class:`repro.bloom.runtime.BloomRuntime` claims *exact*
equivalence with the naive engine retained in ``tests/reference`` — same
fixpoints, same stratum assignments, same output-interface contents, tick
for tick, including the accumulation artifacts of nonmonotonic rule
bodies (intermediate aggregates that land in persistent targets) and the
boundary semantics of ``<+``/``<-``.  These tests check the claim two
ways:

* seeded-random *programs*: a generator builds random rule sets over
  every operator (scan/project/calc/select/join/antijoin/groupby/union/
  const, all four merge ops), skips unstratifiable draws, and drives both
  engines through a random multi-tick input schedule;
* hypothesis-random *schedules* over a fixed adversarial module that
  mixes recursion, aggregation, antijoin, deferred copy, and deletion,
  and over one whose count-only group-by sees a row retracted by ``<-``
  and re-derived or re-inserted within one tick.

* seeded-random schedules over a module whose rule bodies *reuse node
  objects* (the generator above never does), so the compiled pipeline's
  once-per-round answer for a shared node is held to the reference too.

* hypothesis-random arrival orders over a module whose first stratum
  holds rules fed by distinct inputs, so the order in which rules join
  a wave's worklist varies and is held to the reference too.

* one-row schedules — exactly one row into one input per tick, the shape
  of the ordered strategy's sequenced timesteps — over the four Figure 6
  report modules (thresholds their counts cross mid-run) and both modules
  above, so the single-row fast paths and a stratum dirtied only by a
  re-assert are held to the reference too.

Both engines evaluate the *same module instance* on purpose: per-rule
evaluation state must live in the runtime (the closures of its compiled
pipelines), never on the shared AST.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.queries import QUERY_NAMES, make_report_module
from repro.bloom.module import BloomModule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError
from tests.reference import NaiveBloomRuntime

VALUES = range(4)


def _pred_even(row) -> bool:
    return row["a"] % 2 == 0


def _pred_le(row) -> bool:
    return row["a"] <= row["b"]


def _calc_sum(a, b) -> int:
    return (a + b) % 7


_PREDICATES = (_pred_even, _pred_le)
_AGGS = ("count", "sum", "min", "max")


class RandomModule(BloomModule):
    """A random arity-2 Bloom program drawn from a seed."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        super().__init__(f"random{seed}")

    def setup(self) -> None:
        self.input_interface("in0", ["a", "b"])
        self.input_interface("in1", ["a", "b"])
        self.table("t0", ["a", "b"])
        self.table("t1", ["a", "b"])
        self.table("t2", ["a", "b"])
        self.scratch("s0", ["a", "b"])
        self.output_interface("out0", ["a", "b"])
        self.output_interface("out1", ["a", "b"])

    # -- random tree construction --------------------------------------
    def _leaf(self, rng: random.Random):
        if rng.random() < 0.15:
            rows = [
                (rng.choice(VALUES), rng.choice(VALUES))
                for _ in range(rng.randrange(3))
            ]
            return self.const(rows, ["a", "b"])
        return self.scan(
            rng.choice(["in0", "in1", "t0", "t1", "t2", "s0"])
        )

    def _tree(self, rng: random.Random, depth: int):
        if depth <= 0:
            return self._leaf(rng)
        kind = rng.choice(
            ["leaf", "project", "select", "calc", "join", "antijoin",
             "groupby", "union"]
        )
        if kind == "leaf":
            return self._leaf(rng)
        if kind == "project":
            child = self._tree(rng, depth - 1)
            return self.project(child, [("b", "a"), ("a", "b")])
        if kind == "select":
            child = self._tree(rng, depth - 1)
            pred = rng.choice(_PREDICATES)
            return self.select(child, pred, refs=["a", "b"])
        if kind == "calc":
            child = self._tree(rng, depth - 1)
            wide = self.calc(child, "c", _calc_sum, ["a", "b"])
            return self.project(wide, ["a", ("c", "b")])
        if kind == "join":
            left = self._tree(rng, depth - 1)
            right = self.project(
                self._tree(rng, depth - 1), [("a", "x"), ("b", "y")]
            )
            joined = self.join(left, right, on=[("b", "x")])
            return self.project(joined, ["a", ("y", "b")])
        if kind == "antijoin":
            left = self._tree(rng, depth - 1)
            right = self._tree(rng, depth - 1)
            on = rng.choice(([("a", "a")], [("b", "b")], [("a", "b")]))
            return self.notin(left, right, on=on)
        if kind == "groupby":
            child = self._tree(rng, depth - 1)
            agg = rng.choice(_AGGS)
            col = None if agg == "count" else "b"
            # a monotone hint exempts the aggregate from stratification,
            # so recursion through it is legal — only min/max terminate
            # there (they never mint values outside the finite domain;
            # count/sum would grow their own input forever)
            monotone = agg in ("min", "max") and rng.random() < 0.3
            return self.group_by(
                child,
                ["a"],
                [("b", agg, col)],
                monotone=monotone,
            )
        return self.union(self._tree(rng, depth - 1), self._tree(rng, depth - 1))

    def rules(self):
        rng = random.Random(f"program:{self._seed}")
        built = []
        for _ in range(rng.randrange(4, 9)):
            roll = rng.random()
            if roll < 0.7:
                op = "<="
                # outputs drawn often enough that most programs have one
                # with several writers: retraction from a shared standing
                # sink is reached by design, not by luck
                lhs = rng.choice(
                    ["t0", "t1", "t2", "s0", "out0", "out0", "out0", "out1"]
                )
            elif roll < 0.85:
                op = "<+"
                lhs = rng.choice(["t0", "t1", "t2"])
            else:
                op = "<-"
                lhs = rng.choice(["t0", "t1", "t2"])
            built.append(self.rule(lhs, op, self._tree(rng, rng.randrange(1, 4))))
        if rng.random() < 0.3:
            # an output writer that retracts in the middle of a step: a
            # hinted extremum over a table its own stratum may still grow
            extremum = self.group_by(
                self.scan(rng.choice(["t0", "t1", "t2"])),
                ["a"],
                [("b", rng.choice(["min", "max"]), "b")],
                monotone=True,
            )
            built.append(self.rule("out1", "<=", extremum))
        return built


def _schedule(seed: int, ticks: int = 5) -> list[list[tuple[str, list[tuple]]]]:
    """Random external inserts per tick (interfaces and tables)."""
    rng = random.Random(f"schedule:{seed}")
    plan = []
    for _ in range(ticks):
        step = []
        for collection in ("in0", "in1", "t0"):
            if rng.random() < 0.8:
                rows = [
                    (rng.choice(VALUES), rng.choice(VALUES))
                    for _ in range(rng.randrange(4))
                ]
                if rows:
                    step.append((collection, rows))
        plan.append(step)
    return plan


def _run_differential(module: BloomModule, plan) -> list[dict]:
    """Drive both engines through ``plan`` in lockstep; returns the
    outputs of each planned tick."""
    incremental = BloomRuntime(module)
    naive = NaiveBloomRuntime(module)
    assert incremental.strata() == naive.strata()
    seen = []
    for step in plan:
        for collection, rows in step:
            incremental.insert(collection, rows)
            naive.insert(collection, rows)
        outputs = incremental.tick()
        assert outputs == naive.tick()
        seen.append(outputs)
        for decl in module.declarations:
            assert incremental.read(decl.name) == naive.read(decl.name), (
                f"{module.name}: {decl.name} diverged"
            )
        assert incremental.has_pending_input == naive.has_pending_input
    # settle: deferred/deletion chains keep mutating state after input
    # stops; both engines must track each other to quiescence (bounded)
    for _ in range(4):
        if not naive.has_pending_input:
            break
        assert incremental.tick() == naive.tick()
        for decl in module.declarations:
            assert incremental.read(decl.name) == naive.read(decl.name)
    return seen


def test_randomized_programs_and_schedules_are_engine_equivalent():
    """The satellite acceptance: identical fixpoints, strata, outputs."""
    checked = shared_sinks = 0
    for seed in range(120):
        module = RandomModule(seed)
        try:
            NaiveBloomRuntime(module)
        except BloomError:
            continue  # unstratifiable draw (recursion through negation)
        _run_differential(module, _schedule(seed))
        checked += 1
        writers = [rule.lhs for rule in module.program if rule.instantaneous]
        shared_sinks += any(writers.count(out) > 1 for out in ("out0", "out1"))
    # the generator must actually exercise the space, not skip it
    assert checked >= 40, f"only {checked} stratifiable programs generated"
    assert shared_sinks >= 20, f"only {shared_sinks} programs share an output"


class AdversarialModule(BloomModule):
    """Recursion + aggregation + antijoin + deferred copy + deletion.

    Designed to hit every engine path at once: a transitive closure
    (recursive join) feeding a count aggregate in a higher stratum, an
    antijoin gate over a table that rows are deferred-deleted from, and a
    ``<+``/``<-`` aging pair that keeps state churning across boundaries.
    """

    def setup(self) -> None:
        self.input_interface("edge", ["a", "b"])
        self.table("link", ["a", "b"])
        self.table("path", ["a", "b"])
        self.table("fresh", ["a", "b"])
        self.table("old", ["a", "b"])
        self.output_interface("fan", ["a", "b"])
        self.output_interface("quiet", ["a", "b"])

    def rules(self):
        hop = self.join(
            self.scan("link"),
            self.project(self.scan("path"), [("a", "m"), ("b", "far")]),
            on=[("b", "m")],
        )
        counts = self.group_by(
            self.scan("path"), ["a"], [("b", "count", None)]
        )
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("path", "<=", self.scan("link")),
            self.rule("path", "<=", self.project(hop, ["a", ("far", "b")])),
            self.rule("fan", "<=", counts),
            self.rule("fresh", "<=", self.scan("edge")),
            self.rule("old", "<+", self.scan("fresh")),
            self.rule("fresh", "<-", self.scan("old")),
            self.rule(
                "quiet",
                "<=",
                self.notin(self.scan("link"), self.scan("fresh"), on=[("a", "a")]),
            ),
        ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            max_size=4,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_adversarial_module_equivalent_under_random_schedules(steps):
    module = AdversarialModule()
    plan = [[("edge", rows)] if rows else [] for rows in steps]
    _run_differential(module, plan)


class RecountModule(BloomModule):
    """A count-only group-by over a table that loses a row and regains it
    in one tick.

    ``link <- drop`` retracts a row at the next boundary, and in that same
    tick ``link <= keep`` re-derives it (or ``edge`` re-inserts it).  The
    count keeps one integer per group, so it must be handed the table's net
    change for the tick — one removal without its re-arrival would leave
    it one short — and end every tick where the naive recount does.
    """

    def setup(self) -> None:
        self.input_interface("edge", ["a", "b"])
        self.input_interface("drop", ["a", "b"])
        self.input_interface("pin", ["a", "b"])
        self.table("link", ["a", "b"])
        self.table("keep", ["a", "b"])
        self.output_interface("fan", ["a", "n"])

    def rules(self):
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("keep", "<=", self.scan("pin")),
            self.rule("link", "<=", self.scan("keep")),
            self.rule("link", "<-", self.scan("drop")),
            self.rule(
                "fan", "<=", self.group_by(self.scan("link"), ["a"], [("n", "count", None)])
            ),
        ]


RECOUNT_ROW = st.tuples(
    st.sampled_from(["edge", "drop", "pin"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(RECOUNT_ROW, max_size=4), min_size=1, max_size=6))
@example([[("edge", (0, 1)), ("pin", (0, 1))], [("drop", (0, 1))], []])
@example([[("edge", (1, 1))], [("drop", (1, 1))], [("edge", (1, 1))]])
def test_a_count_whose_row_leaves_and_returns_in_one_tick_is_engine_equivalent(steps):
    plan = [[(collection, [row]) for collection, row in step] for step in steps]
    _run_differential(RecountModule(), plan)


class WaveOrderModule(BloomModule):
    """One stratum of rules, each fed by an input of its own.

    The order in which a tick's inputs arrive is the order in which their
    rules join the stratum's worklist.  Three rules write ``t``, three
    share the standing sink ``seen`` (one of them joining two inputs), and
    a scratch hands ``t`` more rows in a second wave, so one wave fires
    several rules into the same targets; ``<-`` retracts from ``t`` and a
    count over it sits a stratum above.
    """

    def setup(self) -> None:
        for name in ("in0", "in1", "in2", "drop"):
            self.input_interface(name, ["a", "b"])
        self.table("t", ["a", "b"])
        self.scratch("s", ["a", "b"])
        self.output_interface("seen", ["a", "b"])
        self.output_interface("fan", ["a", "n"])

    def rules(self):
        both = self.join(
            self.scan("in0"),
            self.project(self.scan("in2"), [("a", "x"), ("b", "y")]),
            on=[("a", "x")],
        )
        return [
            self.rule("t", "<=", self.scan("in0")),
            self.rule("t", "<=", self.project(self.scan("in1"), [("b", "a"), ("a", "b")])),
            self.rule("s", "<=", self.scan("in2")),
            self.rule("t", "<=", self.scan("s")),
            self.rule("seen", "<=", self.scan("in0")),
            self.rule("seen", "<=", self.scan("in1")),
            self.rule("seen", "<=", self.project(both, ["a", ("y", "b")])),
            self.rule("t", "<-", self.scan("drop")),
            self.rule(
                "fan", "<=", self.group_by(self.scan("t"), ["a"], [("n", "count", None)])
            ),
        ]


WAVE_ROW = st.tuples(
    st.sampled_from(["in0", "in1", "in2", "drop"]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(WAVE_ROW, max_size=6), min_size=1, max_size=6))
@example([[("in0", (0, 1)), ("in1", (1, 0)), ("in2", (0, 2))], [("drop", (0, 1))]])
def test_the_order_rules_join_a_wave_in_cannot_be_observed(steps):
    """Each tick's rows arrive one at a time, in the drawn order and in the
    reverse order; both runs match the naive engine tick for tick."""
    module = WaveOrderModule()
    assert len(BloomRuntime(module).strata()[0]) >= 3
    plan = [[(collection, [row]) for collection, row in step] for step in steps]
    forward = _run_differential(module, plan)
    assert forward == _run_differential(module, [step[::-1] for step in plan])


class SharedNodeModule(BloomModule):
    """Rule bodies that are DAGs, not trees: one node object used twice.

    A shared node is compiled once and must answer once per round — a
    second parent that re-ran it would see its indexes already advanced
    and get an empty delta.  Three shapes: an aggregate joined to itself
    through two projections, a union of a select with its own child, and
    one scan on both sides of an antijoin; ``link`` shrinks through
    ``<-`` so every shape also sees retractions.
    """

    def setup(self) -> None:
        self.input_interface("edge", ["a", "b"])
        self.input_interface("drop", ["a", "b"])
        self.table("link", ["a", "b"])
        self.table("seen", ["a", "b"])
        self.scratch("peers", ["a", "b"])
        self.output_interface("mixed", ["a", "b"])
        self.output_interface("lonely", ["a", "b"])

    def rules(self):
        link = self.scan("link")
        fanout = self.group_by(link, ["a"], [("n", "count", None)])
        same_fanout = self.join(
            self.project(fanout, ["a", "n"]),
            self.project(fanout, [("a", "b"), ("n", "m")]),
            on=[("n", "m")],
        )
        peers = self.project(same_fanout, ["a", "b"])
        return [
            self.rule("link", "<=", self.scan("edge")),
            self.rule("link", "<-", self.scan("drop")),
            self.rule("peers", "<=", peers),
            self.rule("seen", "<=", peers),
            self.rule(
                "mixed",
                "<=",
                self.union(self.select(link, _pred_even, refs=["a"]), link),
            ),
            self.rule("lonely", "<=", self.notin(link, link, on=[("a", "b")])),
        ]


def test_shared_subdags_are_engine_equivalent_under_inserts_and_deletes():
    module = SharedNodeModule()
    for seed in range(40):
        rng = random.Random(f"shared:{seed}")
        plan = []
        for _ in range(8):
            step = []
            for collection, chance in (("edge", 0.8), ("drop", 0.5)):
                rows = [
                    (rng.choice(VALUES), rng.choice(VALUES))
                    for _ in range(rng.randrange(1, 4))
                ]
                if rng.random() < chance:
                    step.append((collection, rows))
            plan.append(step)
        _run_differential(module, plan)


def one_row_plan(seed: int, draw, ticks: int = 36) -> list:
    """Exactly one row into one input per tick: ``draw(rng, tick)`` picks
    ``(collection, row)``.  A third of the ticks repeat the previous
    tick's row, which changes no input at all, so a tick whose only work
    is a re-assert comes up often."""
    rng = random.Random(f"one-row:{seed}")
    plan, last = [], None
    for tick in range(ticks):
        if last is None or rng.random() >= 1 / 3:
            last = draw(rng, tick)
        collection, row = last
        plan.append([(collection, [row])])
    return plan


def report_row(rng: random.Random, tick: int) -> tuple[str, tuple]:
    """A click on one of two ads in two campaigns and windows, or a request."""
    if rng.random() < 0.2:
        return "request", (f"q{rng.randrange(3)}", f"ad{rng.randrange(2)}")
    click = (f"c{rng.randrange(2)}", rng.randrange(2), f"ad{rng.randrange(2)}", f"u{tick}")
    return "click", click


def pair_row(*collections: str):
    def draw(rng: random.Random, tick: int) -> tuple[str, tuple]:
        return rng.choice(collections), (rng.choice(VALUES), rng.choice(VALUES))

    return draw


def crossed(query: str, plan: list, seen: list[dict]) -> bool:
    """Did a count cross the query's threshold during the run?  POOR,
    WINDOW and CAMPAIGN then lose an answer; THRESH gains one for a
    request posed on an earlier tick."""
    asked: dict[tuple, int] = {}
    for tick, [(collection, [row])] in enumerate(plan):
        if collection == "request":
            asked.setdefault(row, tick)
    for tick in range(1, len(seen)):
        before, now = seen[tick - 1]["response"], seen[tick]["response"]
        if query != "THRESH" and before - now:
            return True
        if query == "THRESH" and any(asked[row] < tick for row in now - before):
            return True
    return False


def test_one_row_ticks_are_engine_equivalent():
    crossings = dict.fromkeys(QUERY_NAMES, 0)
    for query in QUERY_NAMES:
        for seed in range(6):
            plan = one_row_plan(seed, report_row)
            seen = _run_differential(make_report_module(query, threshold=3), plan)
            crossings[query] += crossed(query, plan, seen)
    assert min(crossings.values()) >= 3, crossings
    checked = 0
    for seed in range(60):
        module = RandomModule(seed)
        try:
            NaiveBloomRuntime(module)
        except BloomError:
            continue  # unstratifiable draw
        _run_differential(module, one_row_plan(seed, pair_row("in0", "in1", "t0")))
        checked += 1
    assert checked >= 20, f"only {checked} stratifiable programs generated"
    for seed in range(10):
        _run_differential(AdversarialModule(), one_row_plan(seed, pair_row("edge")))
