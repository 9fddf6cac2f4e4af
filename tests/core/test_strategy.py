"""Unit tests for coordination selection (paper Section V-B)."""

from __future__ import annotations

from repro.core import (
    CR,
    CW,
    OR,
    OW,
    Async,
    Dataflow,
    Diverge,
    FDSet,
    Inst,
    NoCoordination,
    OrderStrategy,
    Run,
    Seal,
    SealStrategy,
    analyze,
    choose_strategies,
    label_under_ordering,
    ordered_plan,
)


def one_component_flow(annotation, *, seal=None, rep=True):
    flow = Dataflow("one")
    comp = flow.add_component("C", rep=rep)
    comp.add_path("in", "out", annotation)
    flow.add_stream("in", dst=("C", "in"), seal=seal)
    flow.add_stream("out", src=("C", "out"))
    return flow


def test_confluent_components_need_nothing():
    for annotation in (CR(), CW()):
        result = analyze(one_component_flow(annotation))
        plan = choose_strategies(result)
        assert isinstance(plan.strategy_for("C"), NoCoordination)
        assert not plan.coordinated_components


def test_compatible_seal_selects_seal_strategy():
    result = analyze(one_component_flow(OW("k"), seal=["k"]))
    plan = choose_strategies(result)
    strategy = plan.strategy_for("C")
    assert isinstance(strategy, SealStrategy)
    assert strategy.partitions == (("in", frozenset({"k"})),)
    assert strategy.gates == (frozenset({"k"}),)
    assert "sealed on {k}" in strategy.describe()
    assert not plan.uses_global_order


def test_unsealed_order_sensitive_falls_back_to_ordering():
    result = analyze(one_component_flow(OW("k")))
    plan = choose_strategies(result)
    strategy = plan.strategy_for("C")
    assert isinstance(strategy, OrderStrategy)
    assert strategy.streams == ("in",)
    assert plan.uses_global_order
    assert "C" in plan.coordinated_components


def test_a_seal_on_another_input_leaves_the_state_tainted_so_the_plan_orders():
    """A compatible seal on the confluent input's stream passes the key
    check, but the order-sensitive write's own stream is unsealed: the
    output's state stays tainted, so sealing is rejected and the plan
    orders both streams."""
    flow = Dataflow("two-inputs")
    comp = flow.add_component("C", rep=True)
    comp.add_path("a", "out", OW("k"))
    comp.add_path("b", "out", CW())
    flow.add_stream("sa", dst=("C", "a"))
    flow.add_stream("sb", dst=("C", "b"), seal=["k"])
    flow.add_stream("out", src=("C", "out"))
    strategy = choose_strategies(analyze(flow)).strategy_for("C")
    assert strategy == OrderStrategy("C", ("sa", "sb"), "output out still exhibits tainted state")


def test_star_gate_reports_reason():
    result = analyze(one_component_flow(OW()))
    strategy = choose_strategies(result).strategy_for("C")
    assert isinstance(strategy, OrderStrategy)
    assert "unknown gate" in strategy.reason


def test_incompatible_seal_reports_reason():
    result = analyze(one_component_flow(OW("k"), seal=["other"]))
    strategy = choose_strategies(result).strategy_for("C")
    assert isinstance(strategy, OrderStrategy)
    assert "compatible" in strategy.reason


def test_multiple_gates_must_all_be_compatible():
    flow = Dataflow("two-gates")
    comp = flow.add_component("C", rep=True)
    comp.add_path("a", "out", OW("k"))
    comp.add_path("b", "out", OR("j"))
    flow.add_stream("a", dst=("C", "a"), seal=["k"])
    flow.add_stream("b", dst=("C", "b"))
    flow.add_stream("out", src=("C", "out"))
    result = analyze(flow)
    strategy = choose_strategies(result).strategy_for("C")
    # the seal on `a` covers gate {k} but not gate {j}: must order
    assert isinstance(strategy, OrderStrategy)


def test_fd_makes_seal_cover_both_gates():
    flow = Dataflow("fd-covered")
    comp = flow.add_component("C", rep=True)
    comp.add_path("a", "out", OW("k"))
    comp.add_path("b", "out", OR("j"))
    flow.add_stream("a", dst=("C", "a"), seal=["k"])
    flow.add_stream("b", dst=("C", "b"), seal=["k"])
    flow.add_stream("out", src=("C", "out"))
    fds = FDSet()
    fds.add("k", "j", injective=True)
    result = analyze(flow, fds)
    strategy = choose_strategies(result).strategy_for("C")
    assert isinstance(strategy, SealStrategy)


def test_strategy_for_unknown_component_defaults_to_none():
    result = analyze(one_component_flow(CR()))
    plan = choose_strategies(result)
    assert isinstance(plan.strategy_for("ghost"), NoCoordination)


def test_plan_describe_lists_every_component():
    result = analyze(one_component_flow(OW("k")))
    plan = choose_strategies(result)
    assert "ordered delivery at C" in plan.describe()


class TestOrderedPlan:
    """The imposed-ordering plan (deployment-chosen Section V-B2)."""

    def test_order_sensitive_component_gets_ordered_strategy(self):
        # even with a compatible seal available, an ordered deployment
        # routes through the sequencer — it never needs the seal key
        result = analyze(one_component_flow(OW("k"), seal=["k"]))
        plan = ordered_plan(result, topic="t.inputs")
        strategy = plan.strategy_for("C")
        assert isinstance(strategy, OrderStrategy)
        assert strategy.kind == "ordered" and not strategy.reason
        assert strategy.streams == ("in",)
        assert strategy.topic == "t.inputs"
        assert "sequencer-ordered delivery installed at C" in strategy.describe()
        assert plan.uses_global_order
        assert plan.coordinated_components == ("C",)

    def test_confluent_component_still_needs_nothing(self):
        result = analyze(one_component_flow(CR()))
        plan = ordered_plan(result)
        assert isinstance(plan.strategy_for("C"), NoCoordination)
        assert not plan.uses_global_order

    def test_label_under_ordering_caps_at_async(self):
        for label in (Run(), Inst(), Diverge()):
            assert label_under_ordering(label) == Async()
        for label in (Async(), Seal("k")):
            assert label_under_ordering(label) == label
