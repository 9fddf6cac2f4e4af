"""Verdict, plan, lint and explain are linear — pinned as a count.

A ``sys.settrace`` line counter (``tools/unexecuted.py``'s tracer)
restricted to ``repro/core`` repeats exactly from run to run, so the
growth of executed lines for 4x the components is a fact about the code,
not about the host.  The shapes are the perf ledger's (``benchmarks/`` is
not imported) plus two single components: a hub with many inputs into one
output, and a wide one with as many outputs as paths.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import repro.core
from repro.apps.ad_network import ad_network_dataflow
from repro.core import (
    CR,
    CW,
    OW,
    Dataflow,
    analyze,
    choose_strategies,
    lint_dataflow,
    ordered_plan,
    render_chain,
)
from tools.unexecuted import count_lines

CORE = str(Path(repro.core.__file__).parent)


def chain(n: int, rng: random.Random) -> Dataflow:
    flow = Dataflow(f"chain-{n}")
    for i in range(n):
        comp = flow.add_component(f"c{i}")
        comp.add_path("in", "out", OW("k") if rng.random() < 1 / 3 else CW())
    flow.add_stream("src", dst=("c0", "in"), seal=["k"])
    for i in range(n - 1):
        flow.add_stream(f"s{i}", src=(f"c{i}", "out"), dst=(f"c{i+1}", "in"))
    flow.add_stream("sink", src=(f"c{n-1}", "out"))
    return flow


def fan(n: int, rng: random.Random) -> Dataflow:
    flow = Dataflow(f"fan-{n}")
    flow.add_component("sink").add_path("in", "out", CW())
    for i in range(n - 1):
        comp = flow.add_component(f"leaf{i}")
        comp.add_path("in", "out", CR() if rng.random() < 2 / 3 else CW())
        flow.add_stream(f"src{i}", dst=(f"leaf{i}", "in"))
        flow.add_stream(f"s{i}", src=(f"leaf{i}", "out"), dst=("sink", "in"))
    flow.add_stream("sink", src=("sink", "out"))
    return flow


def cycles(n: int, rng: random.Random) -> Dataflow:
    """A chain of two-component cycles (each pair gossips)."""
    flow = Dataflow(f"cycles-{n}")
    pairs = max(1, n // 2)
    for i in range(pairs):
        a = flow.add_component(f"a{i}")
        a.add_path("in", "out", CW())
        a.add_path("peer", "out", CW())
        b = flow.add_component(f"b{i}")
        b.add_path("in", "out", CR() if rng.random() < 1 / 3 else CW())
        flow.add_stream(f"ab{i}", src=(f"a{i}", "out"), dst=(f"b{i}", "in"))
        flow.add_stream(f"ba{i}", src=(f"b{i}", "out"), dst=(f"a{i}", "peer"))
    flow.add_stream("src", dst=("a0", "in"))
    for i in range(pairs - 1):
        flow.add_stream(f"next{i}", src=(f"b{i}", "out"), dst=(f"a{i+1}", "in"))
    flow.add_stream("sink", src=(f"b{pairs-1}", "out"))
    return flow


def hub(n: int, rng: random.Random) -> Dataflow:
    """One component with ``n`` input interfaces, each fed from outside."""
    flow = Dataflow(f"hub-{n}")
    comp = flow.add_component("hub")
    for i in range(n):
        comp.add_path(f"in{i}", "out", CR() if rng.random() < 1 / 2 else CW())
        flow.add_stream(f"src{i}", dst=("hub", f"in{i}"))
    flow.add_stream("sink", src=("hub", "out"))
    return flow


def wide(n: int, rng: random.Random) -> Dataflow:
    """One component with ``n`` paths ``in_j -> out_j``, each input fed
    from outside and each output sunk: as many output interfaces as paths."""
    flow = Dataflow(f"wide-{n}")
    comp = flow.add_component("wide")
    for i in range(n):
        comp.add_path(f"in{i}", f"out{i}", CR() if rng.random() < 1 / 2 else OW("k"))
        flow.add_stream(f"src{i}", dst=("wide", f"in{i}"), seal=["k"] if i % 2 else None)
        flow.add_stream("sink" if i == 0 else f"sink{i}", src=("wide", f"out{i}"))
    return flow


def verdict_to_explanation(flow: Dataflow) -> str:
    result = analyze(flow)
    plan = choose_strategies(result)
    ordered_plan(result)
    lint_dataflow(result, plan)
    return render_chain(result, "sink")


def core_lines(call, *args) -> int:
    """Line events executed in files under ``repro/core`` while ``call`` runs."""
    return count_lines(CORE, call, *args)


@pytest.mark.parametrize("shape", [chain, fan, cycles, hub, wide])
def test_executed_core_lines_grow_linearly_with_the_graph(shape):
    small, large = (shape(n, random.Random(f"{shape.__name__}:{n}")) for n in (100, 400))
    base, grown = core_lines(verdict_to_explanation, small), core_lines(verdict_to_explanation, large)
    assert base > 1_000, "the counter saw no analysis"
    assert grown <= 4.5 * base, (shape.__name__, base, grown, grown / base)
    assert core_lines(verdict_to_explanation, small) == base  # a count, not a timing


def _blocks(text: str) -> list[str]:
    return [block.splitlines()[-1].split(" => ")[0] for block in text.split("\n\n")]


def test_render_chain_returns_on_the_papers_figure_4():
    text = render_chain(analyze(ad_network_dataflow("CAMPAIGN")), "answers")
    assert sorted(_blocks(text)) == [
        "Cache.request",
        "Cache.response (cycle collapsed)",
        "Report.response",
        "sink answers",
    ]


def test_render_chain_lists_every_gossip_pair_once():
    flow = cycles(200, random.Random(0))
    blocks = _blocks(render_chain(analyze(flow), "sink"))
    expected = {f"{member}{i}.out (cycle collapsed)" for member in "ab" for i in range(100)}
    assert len(blocks) == 201 and set(blocks[:-1]) == expected


def test_render_chain_is_not_bounded_by_the_recursion_limit():
    depth = max(3_000, 2 * sys.getrecursionlimit())
    blocks = _blocks(render_chain(analyze(chain(depth, random.Random(0))), "sink"))
    assert blocks == [f"c{i}.out" for i in range(depth)] + ["sink sink"]
