"""Unit tests for the relational-algebra AST."""

from __future__ import annotations

import pytest

from repro.bloom.ast import (
    AntiJoin,
    Calc,
    Const,
    GroupBy,
    Join,
    Project,
    Scan,
    Select,
    Union,
    compile_rule,
)
from repro.errors import BloomError
from tests.reference import naive_eval

R = Scan("r", ("a", "b"))
S = Scan("s", ("b", "c"))


def env(**collections):
    return {name: frozenset(rows) for name, rows in collections.items()}


class TestEval:
    def test_scan_reads_collection(self):
        e = env(r={(1, 2), (3, 4)})
        assert naive_eval(R, e) == {(1, 2), (3, 4)}
        assert naive_eval(R, {}) == frozenset()

    def test_project_identity_and_rename(self):
        node = Project(R, ["b", ("a", "x")])
        assert node.schema == ("b", "x")
        assert naive_eval(node, env(r={(1, 2)})) == {(2, 1)}

    def test_project_unknown_column_rejected(self):
        with pytest.raises(BloomError):
            Project(R, ["nope"])

    def test_project_duplicate_alias_rejected(self):
        with pytest.raises(BloomError):
            Project(R, ["a", ("b", "a")])

    def test_calc_appends_computed_column(self):
        node = Calc(R, "total", lambda a, b: a + b, ["a", "b"])
        assert node.schema == ("a", "b", "total")
        assert naive_eval(node, env(r={(1, 2)})) == {(1, 2, 3)}

    def test_select_filters(self):
        node = Select(R, lambda row: row["a"] > 1, ("a",))
        assert naive_eval(node, env(r={(1, 2), (3, 4)})) == {(3, 4)}

    def test_join_on_shared_column(self):
        node = Join(R, S, on=[("b", "b")])
        assert node.schema == ("a", "b", "c")
        result = naive_eval(node, env(r={(1, 2)}, s={(2, "x"), (3, "y")}))
        assert result == {(1, 2, "x")}

    def test_join_collision_rejected(self):
        with pytest.raises(BloomError):
            Join(R, Scan("t", ("a", "d")), on=[("a", "d")])

    def test_antijoin_keeps_unmatched(self):
        node = AntiJoin(R, S, on=[("b", "b")])
        result = naive_eval(node, env(r={(1, 2), (5, 9)}, s={(2, "x")}))
        assert result == {(5, 9)}
        assert node.theta_columns == ("b",)

    def test_group_by_count_and_sum(self):
        node = GroupBy(R, ["a"], [("n", "count", None), ("total", "sum", "b")])
        result = naive_eval(node, env(r={(1, 2), (1, 3), (2, 10)}))
        assert result == {(1, 2, 5), (2, 1, 10)}

    def test_group_by_min_max_accum(self):
        node = GroupBy(R, ["a"], [("lo", "min", "b"), ("hi", "max", "b"), ("all", "accum", "b")])
        result = naive_eval(node, env(r={(1, 2), (1, 5)}))
        assert result == {(1, 2, 5, frozenset({2, 5}))}

    def test_group_by_unknown_aggregate_rejected(self):
        with pytest.raises(BloomError):
            GroupBy(R, ["a"], [("x", "median", "b")])

    def test_union_of_matching_arity(self):
        node = Union(R, Scan("r2", ("a", "b")))
        result = naive_eval(node, env(r={(1, 2)}, r2={(3, 4)}))
        assert result == {(1, 2), (3, 4)}

    def test_union_arity_mismatch_rejected(self):
        with pytest.raises(BloomError):
            Union(R, Scan("t", ("a",)))

    def test_const_rows(self):
        node = Const([(1,), (2,)], ["k"])
        assert naive_eval(node, {}) == {(1,), (2,)}
        with pytest.raises(BloomError):
            Const([(1, 2)], ["k"])


class TestMonotonicity:
    def test_monotone_chain(self):
        node = Project(Select(Join(R, S, on=[("b", "b")]), lambda r: True), ["a"])
        assert node.monotonic

    def test_antijoin_is_nonmonotonic(self):
        node = AntiJoin(R, S, on=[("b", "b")])
        assert not node.monotonic
        assert node.nonmonotonic_ops() == (node,)

    def test_group_by_is_nonmonotonic(self):
        node = GroupBy(R, ["a"], [("n", "count", None)])
        assert not node.monotonic

    def test_monotone_hint_restores_confluence(self):
        node = GroupBy(R, ["a"], [("n", "count", None)], monotone=True)
        assert node.monotonic
        assert node.nonmonotonic_ops() == ()

    def test_nested_nonmonotonicity_propagates(self):
        inner = GroupBy(R, ["a"], [("n", "count", None)])
        outer = Project(inner, ["a"])
        assert not outer.monotonic
        assert outer.nonmonotonic_ops() == (inner,)


class TestLineage:
    def test_scan_lineage_is_identity(self):
        assert R.lineage()["a"] == {("r", "a")}

    def test_projection_preserves_identity_through_rename(self):
        node = Project(R, [("a", "x")])
        assert node.lineage()["x"] == {("r", "a")}

    def test_calc_breaks_lineage(self):
        node = Calc(R, "t", lambda a: a, ["a"])
        assert node.lineage()["t"] == frozenset()

    def test_group_by_keys_keep_lineage_but_aggs_do_not(self):
        node = GroupBy(R, ["a"], [("n", "count", None)])
        lineage = node.lineage()
        assert lineage["a"] == {("r", "a")}
        assert lineage["n"] == frozenset()

    def test_join_lineage_from_both_sides(self):
        node = Join(R, S, on=[("b", "b")])
        lineage = node.lineage()
        assert lineage["a"] == {("r", "a")}
        assert lineage["c"] == {("s", "c")}

    def test_union_lineage_intersects_branches(self):
        # same column name, different source collections -> no shared identity
        node = Union(R, Scan("r2", ("a", "b")))
        assert node.lineage()["a"] == frozenset()

    def test_scans_collects_all_collections(self):
        node = Join(R, AntiJoin(S, Scan("t", ("c",)), on=[("c", "c")]), on=[("b", "b")])
        assert node.scans() == {"r", "s", "t"}


class TestSelectRefsContract:
    """``refs`` is what the compiled predicate gets to see."""

    ROWS = {(1, 2), (3, 4)}

    def run(self, node):
        return compile_rule(node)({"r": (self.ROWS, frozenset())})

    def test_declared_refs_are_the_only_columns_the_predicate_sees(self):
        seen = []
        node = Select(R, lambda row: seen.append(dict(row)) or row["b"] > 2, ("b",))
        assert self.run(node) == ({(3, 4)}, set())
        assert sorted(seen, key=repr) == [{"b": 2}, {"b": 4}]

    def test_reading_an_undeclared_column_names_it_the_refs_and_the_schema(self):
        node = Select(R, lambda row: row["a"] > 1, ("b",))
        with pytest.raises(BloomError) as caught:
            self.run(node)
        message = str(caught.value)
        assert "'a'" in message and "('b',)" in message and "('a', 'b')" in message

    def test_empty_refs_hand_the_predicate_the_full_row(self):
        seen = []
        node = Select(R, lambda row: seen.append(dict(row)) or row["a"] > 1)
        assert self.run(node) == ({(3, 4)}, set())
        assert sorted(seen, key=repr) == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]

    def test_a_key_error_of_the_predicates_own_is_not_rewritten(self):
        lookup = {}
        for refs in ((), ("a",)):
            node = Select(R, lambda row: lookup[row["a"]], refs)
            with pytest.raises(KeyError):
                self.run(node)
