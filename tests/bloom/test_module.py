"""Tests for module declaration, collections, and rule validation."""

from __future__ import annotations

import pytest

from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.rules import Rule
from repro.bloom.runtime import BloomRuntime
from repro.errors import BloomError


class TestCollectionDecl:
    def test_kinds_and_persistence(self):
        table = CollectionDecl("t", CollectionKind.TABLE, ("a",))
        scratch = CollectionDecl("s", CollectionKind.SCRATCH, ("a",))
        assert table.persistent and not table.transient
        assert scratch.transient

    def test_channel_requires_location_specifier(self):
        with pytest.raises(BloomError):
            CollectionDecl("c", CollectionKind.CHANNEL, ("addr", "v"))
        chan = CollectionDecl("c", CollectionKind.CHANNEL, ("@addr", "v"))
        assert chan.address_column == "addr"
        assert chan.columns == ("addr", "v")

    def test_schema_validation(self):
        with pytest.raises(BloomError):
            CollectionDecl("x", CollectionKind.TABLE, ())
        with pytest.raises(BloomError):
            CollectionDecl("x", CollectionKind.TABLE, ("a", "a"))
        with pytest.raises(BloomError):
            CollectionDecl("", CollectionKind.TABLE, ("a",))

    def test_arity_check(self):
        decl = CollectionDecl("t", CollectionKind.TABLE, ("a", "b"))
        assert decl.check_arity([1, 2]) == (1, 2)
        with pytest.raises(BloomError):
            decl.check_arity((1,))


class TestRule:
    def test_operator_classification(self):
        from repro.bloom.ast import Scan

        scan = Scan("x", ("a",))
        assert Rule("y", "<=", scan).instantaneous
        assert Rule("y", "<+", scan).deferred
        assert Rule("y", "<-", scan).deletion
        assert Rule("y", "<~", scan).asynchronous

    def test_unknown_operator_rejected(self):
        from repro.bloom.ast import Scan

        with pytest.raises(BloomError):
            Rule("y", "<<", Scan("x", ("a",)))

    def test_deletion_is_nonmonotonic(self):
        from repro.bloom.ast import Scan

        assert not Rule("y", "<-", Scan("x", ("a",))).monotonic
        assert Rule("y", "<=", Scan("x", ("a",))).monotonic


class TestModuleValidation:
    def test_duplicate_collection_rejected(self):
        class Dup(BloomModule):
            def setup(self):
                self.table("t", ["a"])
                self.table("t", ["b"])

            def rules(self):
                return []

        with pytest.raises(BloomError):
            Dup()

    def test_arity_mismatch_in_rule_rejected(self):
        class Mismatch(BloomModule):
            def setup(self):
                self.input_interface("i", ["a", "b"])
                self.table("t", ["a"])

            def rules(self):
                return [self.rule("t", "<=", self.scan("i"))]

        with pytest.raises(BloomError):
            Mismatch()

    def test_writing_input_interface_rejected(self):
        class WritesInput(BloomModule):
            def setup(self):
                self.input_interface("i", ["a"])
                self.table("t", ["a"])

            def rules(self):
                return [self.rule("i", "<=", self.scan("t"))]

        with pytest.raises(BloomError):
            WritesInput()

    def test_reading_output_interface_rejected(self):
        class ReadsOutput(BloomModule):
            def setup(self):
                self.output_interface("o", ["a"])
                self.table("t", ["a"])

            def rules(self):
                return [self.rule("t", "<=", self.scan("o"))]

        with pytest.raises(BloomError):
            ReadsOutput()

    def test_unknown_collection_rejected(self):
        class Unknown(BloomModule):
            def setup(self):
                self.table("t", ["a"])

            def rules(self):
                return [self.rule("ghost", "<=", self.scan("t"))]

        with pytest.raises(BloomError):
            Unknown()

    def test_declaring_after_construction_is_a_typed_error(self):
        """A late ``table()`` used to add a collection no runtime had
        storage for and surface ticks later as a bare ``KeyError``."""

        class Late(BloomModule):
            def setup(self):
                self.input_interface("i", ["a"])
                self.table("t", ["a"])

            def rules(self):
                return [self.rule("t", "<=", self.scan("i"))]

        module = Late()
        frozen = module.declarations
        with pytest.raises(BloomError, match="after construction"):
            module.table("late", ["a"])
        assert module.declarations is frozen  # one tuple, not one per read
        assert [d.name for d in frozen] == ["i", "t"]
        assert [d.name for d in module.inputs] == ["i"] and module.outputs == ()


class TestStratification:
    def test_unstratifiable_program_rejected(self):
        class NegativeCycle(BloomModule):
            def setup(self):
                self.input_interface("i", ["a"])
                self.table("t", ["a"])
                self.table("u", ["a"])

            def rules(self):
                return [
                    self.rule("t", "<=", self.notin(
                        self.scan("i"), self.scan("u"), on=[("a", "a")]
                    )),
                    self.rule("u", "<=", self.scan("t")),
                ]

        with pytest.raises(BloomError):
            BloomRuntime(NegativeCycle())

    def test_aggregate_sees_complete_lower_stratum(self):
        class CountAfterClosure(BloomModule):
            """Counts the transitive closure, not a partial prefix."""

            def setup(self):
                self.input_interface("edge", ["s", "d"])
                self.output_interface("total", ["n"])
                self.table("path", ["s", "d"])

            def rules(self):
                hop = self.join(
                    self.scan("path"),
                    self.project(self.scan("path"), [("s", "m"), ("d", "far")]),
                    on=[("d", "m")],
                )
                return [
                    self.rule("path", "<=", self.scan("edge")),
                    self.rule("path", "<=", self.project(hop, ["s", ("far", "d")])),
                    self.rule(
                        "total",
                        "<=",
                        self.project(
                            self.group_by(
                                self.calc(self.scan("path"), "one", lambda s: 1, ["s"]),
                                ["one"],
                                [("n", "count", None)],
                            ),
                            ["n"],
                        ),
                    ),
                ]

        runtime = BloomRuntime(CountAfterClosure())
        runtime.insert("edge", [(1, 2), (2, 3)])
        outputs = runtime.tick()
        # closure is {(1,2),(2,3),(1,3)}: count = 3, not a partial count
        assert outputs["total"] == {(3,)}
