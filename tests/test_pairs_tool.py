"""``tools/pairs.py``: the section-8 rule and the count comparison.

The subprocess loop is exercised by hand (CHANGES.md records the runs);
what is pinned here is the arithmetic a claim rests on.
"""

from __future__ import annotations

import json
from pathlib import Path

from tools import pairs

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_counts_wins_and_compares_medians_with_the_parents_spread():
    parent = [1.9, 1.8, 1.85, 1.95, 1.88, 1.83, 1.9, 1.86, 1.91, 1.84]
    change = [1.7, 1.65, 1.9, 1.7, 1.68, 1.66, 1.7, 1.69, 1.72, 1.64]
    text = pairs.verdict(parent, change, lower_is_better=True)
    assert "change wins 9 of 10 pairs (0 ties)" in text
    assert "differ by more than" in text
    # the same samples read as a higher-is-better metric: the change loses
    assert "change wins 1 of 10" in pairs.verdict(parent, change, lower_is_better=False)
    noisy = pairs.verdict([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.1, 3.9], True)
    assert "change wins 2 of 4" in noisy and "NO more" in noisy
    assert pairs.spread([2.0]) == (2.0, 2.0, 2.0)


def test_differing_counts_reads_the_count_metrics_from_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    assert "bloom.ticks" in names and "bloom.tick_us_p50" not in names
    run = {m["name"]: {"value": 3} for m in spec["per_layer"]}
    assert pairs.differing_counts(spec, run, run) == [
        f"  all {len(names)} count metrics identical"
    ]
    moved = {**run, "bloom.ticks": {"value": 4}, "bloom.tick_us_p50": {"value": 9}}
    assert pairs.differing_counts(spec, run, moved) == [
        "  bloom.ticks: parent 3 change 4"
    ]


def test_the_tool_runs_the_benchmark_from_outside():
    source = (ROOT / "tools" / "pairs.py").read_text()
    assert "import benchmarks" not in source and "from benchmarks" not in source
