"""``tools/trajectory.py``: what keys a row and what ``--check`` compares.

The measuring subprocesses are exercised by hand (CHANGES.md records the
rows); what is pinned here is the bookkeeping the ledger rests on.
"""

from __future__ import annotations

import json
from pathlib import Path

from tools import trajectory

ROOT = Path(__file__).resolve().parents[1]


def test_the_source_digest_follows_the_source_and_ignores_what_a_run_leaves(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    before = trajectory.source_digest(tmp_path)
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    (tmp_path / "CHANGES.md").write_text("notes are not source\n")
    assert trajectory.source_digest(tmp_path) == before
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    assert trajectory.source_digest(tmp_path) != before


AUDIT = {"cells": 78, "sound": 78, "tight": 12, "unsound": 0}


def test_check_compares_the_count_columns_and_not_the_timings():
    row = {
        "counts": {"adnet-paper": {"bloom.ticks": 5}},
        "lines": {"src": 10, "tests": 20},
        "surface": {"a": 0},
        "tier1": {"passed": 3, "failed": 0},
        "audit": AUDIT,
        "end_to_end": {"adnet-paper": {"wall_s": 1.0}},
    }
    fresh = {**row, "end_to_end": {"adnet-paper": {"wall_s": 2.0}}}
    assert trajectory.mismatches(row, fresh) == []
    fresh["lines"] = {"src": 11, "tests": 20}
    assert trajectory.mismatches(row, fresh) == [
        "  lines: recorded {'src': 10, 'tests': 20} recomputed {'src': 11, 'tests': 20}"
    ]
    fresh = {**row, "audit": {**AUDIT, "tight": 11}}
    assert [line.split(":")[0] for line in trajectory.mismatches(row, fresh)] == ["  audit"]


def test_a_row_older_than_the_audit_column_is_checked_on_the_others():
    row = {"counts": {}, "lines": {}, "surface": {}, "tier1": {}}
    assert trajectory.mismatches(row, {**row, "audit": AUDIT}) == []
    assert trajectory.mismatches(row, {**row, "audit": AUDIT, "tier1": {"passed": 1}}) == [
        "  tier1: recorded {} recomputed {'passed': 1}"
    ]


def test_every_ledger_row_has_its_columns_and_a_source_of_its_own():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    rows = trajectory.read_rows()
    assert rows, "PERF_TRAJECTORY.jsonl holds no row"
    # the two list counts; every row from the first with the manifest's total carries it too
    first = next((i for i, row in enumerate(rows) if "settable values" in row["surface"]), len(rows))
    # likewise the audit column, from the first row that has one
    audited = next((i for i, row in enumerate(rows) if "audit" in row), len(rows))
    assert len({row["source"] for row in rows}) == len(rows)
    for i, row in enumerate(rows):
        assert ("audit" in row) == (i >= audited)
        assert i < audited or set(row["audit"]) == set(AUDIT)
        assert set(row["end_to_end"]) == set(row["counts"]) == workloads
        for workload in workloads:
            assert set(row["counts"][workload]) == counts
            assert {m["name"] for m in spec["end_to_end"]} <= set(row["end_to_end"][workload])
        assert set(row["lines"]) == {"src", "tests"}
        manifest = i >= first
        assert len(row["surface"]) == 2 + manifest and ("settable values" in row["surface"]) == manifest


def test_the_tool_runs_the_benchmark_from_outside():
    source = (ROOT / "tools" / "trajectory.py").read_text()
    assert "import benchmarks" not in source and "from benchmarks" not in source
