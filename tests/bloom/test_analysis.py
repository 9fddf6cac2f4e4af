"""Tests for white-box annotation extraction (paper Section VII)."""

from __future__ import annotations

from repro.apps.queries import (
    CampaignReport,
    PoorReport,
    ThreshReport,
    WindowReport,
)
from repro.bloom.analysis import analyze_module, attach_component
from repro.bloom.catalog import Catalog
from repro.bloom.module import BloomModule
from repro.core.annotations import OR, STAR, AnnotationKind
from repro.core.graph import Dataflow


class TestQueryAnnotations:
    """The Section VI-B1 annotations, derived automatically."""

    def test_thresh_paths_are_confluent(self):
        # requests persist in a table (standing queries), so both paths
        # are stateful; confluence is what matters: no coordination needed
        analysis = analyze_module(ThreshReport())
        assert analysis.annotation_for("request", "response").kind is AnnotationKind.CW
        assert analysis.annotation_for("click", "response").kind is AnnotationKind.CW

    def test_poor_request_path_is_order_sensitive_on_id(self):
        # exactly the paper's hand-written annotation: the standing-query
        # table is a confluent write upstream of the aggregation, so the
        # path stays a Read
        analysis = analyze_module(PoorReport())
        ann = analysis.annotation_for("request", "response")
        assert ann.kind is AnnotationKind.OR
        assert ann.gate == frozenset({"id"})

    def test_window_gate_includes_window(self):
        analysis = analyze_module(WindowReport())
        ann = analysis.annotation_for("request", "response")
        assert ann.gate == frozenset({"id", "window"})

    def test_campaign_gate_includes_campaign(self):
        analysis = analyze_module(CampaignReport())
        ann = analysis.annotation_for("request", "response")
        assert ann.gate == frozenset({"id", "campaign"})

    def test_click_path_is_order_sensitive_read(self):
        # the click log write is a confluent append upstream of the
        # aggregation, so the composed path is OR[gate]; the paper's hand
        # annotation splits this as CW on the write plus OR on the query
        analysis = analyze_module(CampaignReport())
        ann = analysis.annotation_for("click", "response")
        assert ann.kind is AnnotationKind.OR
        assert ann.gate == frozenset({"id", "campaign"})

    def test_spec_annotations_round_trip(self):
        analysis = analyze_module(PoorReport())
        entries = analysis.spec_annotations()
        assert {e["from"] for e in entries} == {"click", "request"}
        request_entry = next(e for e in entries if e["from"] == "request")
        assert request_entry["label"] == "OR"
        assert request_entry["subscript"] == ["id"]


class TestCatalog:
    def test_lineage_traced_through_table(self):
        catalog = Catalog(PoorReport())
        sources = catalog.trace_to_inputs("clicks", "campaign")
        assert sources == {("click", "campaign")}

    def test_output_column_traces_to_both_interfaces(self):
        catalog = Catalog(PoorReport())
        sources = catalog.trace_to_inputs("response", "id")
        # response.id comes from the request side of the join
        assert ("request", "id") in sources

    def test_identity_rename_produces_injective_fd(self):
        class Renamer(BloomModule):
            def setup(self):
                self.input_interface("inp", ["company"])
                self.output_interface("out", ["symbol"])

            def rules(self):
                return [
                    self.rule(
                        "out", "<=", self.project(self.scan("inp"), [("company", "symbol")])
                    )
                ]

        analysis = analyze_module(Renamer())
        assert analysis.fds.injectively_determines({"company"}, {"symbol"})
        assert analysis.fds.injectively_determines({"symbol"}, {"company"})


class TestComposition:
    def test_star_gate_when_keys_are_computed(self):
        class Computed(BloomModule):
            def setup(self):
                self.input_interface("inp", ["a"])
                self.output_interface("out", ["k", "n"])

            def rules(self):
                doubled = self.calc(self.scan("inp"), "k", lambda a: a * 2, ["a"])
                return [
                    self.rule(
                        "out",
                        "<=",
                        self.group_by(doubled, ["k"], [("n", "count", None)]),
                    )
                ]

        analysis = analyze_module(Computed())
        ann = analysis.annotation_for("inp", "out")
        assert ann.kind is AnnotationKind.OR
        assert ann.gate is STAR

    def test_deletion_rule_is_nonmonotonic(self):
        class Deleter(BloomModule):
            def setup(self):
                self.input_interface("inp", ["v"])
                self.output_interface("out", ["v"])
                self.table("store", ["v"])

            def rules(self):
                return [
                    self.rule("store", "<=", self.scan("inp")),
                    self.rule("store", "<-", self.scan("inp")),
                    self.rule("out", "<=", self.scan("store")),
                ]

        analysis = analyze_module(Deleter())
        ann = analysis.annotation_for("inp", "out")
        assert ann.kind is AnnotationKind.OW

    def test_attach_component_builds_dataflow_paths(self):
        dataflow = Dataflow("ad")
        component = attach_component(dataflow, CampaignReport(), rep=True)
        assert component.rep
        assert set(component.input_interfaces) == {"click", "request"}
        assert component.output_interfaces == ("response",)


class TestGates:
    """The gate of a nonmonotonic statement, and of the paths through it."""

    @staticmethod
    def gate_of(analysis, lhs):
        (statement,) = [s for s in analysis.statements if s.rule.lhs == lhs]
        return statement.gate

    def test_an_antijoin_gates_on_its_theta_columns_traced_to_the_input(self):
        class Cancellable(BloomModule):
            def setup(self):
                self.input_interface("request", ["order", "v"])
                self.input_interface("cancel", ["ref"])
                self.table("pending", ["id", "v"])
                self.table("cancelled", ["ref"])
                self.output_interface("live", ["id", "v"])

            def rules(self):
                return [
                    self.rule("pending", "<=", self.project(self.scan("request"), [("order", "id"), "v"])),
                    self.rule("cancelled", "<=", self.scan("cancel")),
                    self.rule(
                        "live", "<=",
                        self.notin(self.scan("pending"), self.scan("cancelled"), [("id", "ref")]),
                    ),
                ]

        analysis = analyze_module(Cancellable())
        # pending.id is request.order renamed: the catalog chases it back
        assert self.gate_of(analysis, "live") == frozenset({"order"})
        assert analysis.annotation_for("request", "live") == OR("order")
        assert analysis.annotation_for("cancel", "live") == OR("order")

    def test_a_key_traced_through_an_antijoin_s_output_reaches_the_input(self):
        """A scratch fed by an antijoin keeps its left side's lineage, so a
        grouping over it, or a second antijoin on it, gates on the input
        column behind the key."""

        class LiveTotals(BloomModule):
            def setup(self):
                self.input_interface("request", ["order", "v"])
                self.input_interface("cancel", ["ref"])
                self.scratch("live", ["id", "v"])
                self.output_interface("totals", ["id", "n"])
                self.output_interface("unseen", ["id", "v"])

            def rules(self):
                request = self.project(self.scan("request"), [("order", "id"), "v"])
                live, cancel = self.scan("live"), self.scan("cancel")
                return [
                    self.rule("live", "<=", self.notin(request, cancel, [("id", "ref")])),
                    self.rule("totals", "<=", self.group_by(live, ["id"], [("n", "count", None)])),
                    self.rule("unseen", "<=", self.notin(live, cancel, [("id", "ref")])),
                ]

        analysis = analyze_module(LiveTotals())
        assert self.gate_of(analysis, "totals") == frozenset({"order"})
        assert self.gate_of(analysis, "unseen") == frozenset({"order"})
        assert analysis.annotation_for("request", "totals") == OR("order")

    def test_a_group_key_read_straight_off_an_input_is_the_gate(self):
        class Tally(BloomModule):
            def setup(self):
                self.input_interface("inp", ["k", "v"])
                self.output_interface("out", ["k", "n"])

            def rules(self):
                counts = self.group_by(self.scan("inp"), ["k"], [("n", "count", None)])
                return [self.rule("out", "<=", counts)]

        analysis = analyze_module(Tally())
        assert self.gate_of(analysis, "out") == frozenset({"k"})
        assert analysis.annotation_for("inp", "out") == OR("k")

    def test_distinct_gates_between_one_input_and_output_intersect_or_fall_to_star(self):
        class TwoLevels(BloomModule):
            def setup(self):
                self.input_interface("inp", ["a", "b", "v"])
                self.scratch("pairs", ["a", "b", "n"])
                self.scratch("by_a", ["a", "n"])
                self.scratch("by_b", ["b", "n"])
                self.output_interface("nested", ["a", "m"])
                self.output_interface("either", ["k", "n"])

            def rules(self):
                inp = self.scan("inp")
                return [
                    # one route, gates {a, b} then {a}: their intersection
                    self.rule("pairs", "<=", self.group_by(inp, ["a", "b"], [("n", "count", None)])),
                    self.rule("nested", "<=", self.group_by(self.scan("pairs"), ["a"], [("m", "sum", "n")])),
                    # two routes, gates {a} and {b}: nothing in common
                    self.rule("by_a", "<=", self.group_by(inp, ["a"], [("n", "count", None)])),
                    self.rule("by_b", "<=", self.group_by(inp, ["b"], [("n", "count", None)])),
                    self.rule("either", "<=", self.project(self.scan("by_a"), [("a", "k"), "n"])),
                    self.rule("either", "<=", self.project(self.scan("by_b"), [("b", "k"), "n"])),
                ]

        analysis = analyze_module(TwoLevels())
        assert analysis.annotation_for("inp", "nested") == OR("a")
        either = analysis.annotation_for("inp", "either")
        assert either.kind is AnnotationKind.OR and either.gate is STAR
