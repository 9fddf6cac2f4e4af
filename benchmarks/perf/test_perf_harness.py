"""Self-tests of the benchmark harness (collected by the tier-1 run)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.perf import stats
from benchmarks.perf.compare import verdict
from benchmarks.perf.layers import END_TO_END, PER_LAYER
from benchmarks.perf.run import RUN_SECONDS, contract_line, run_workload
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_median_and_quartiles_follow_the_drivers_definition():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.median(values) == 3.0
    assert stats.quartiles(values) == (1.5, 4.5)  # statistics.quantiles(n=4)
    assert stats.quartiles([2.0]) == (2.0, 2.0)
    assert stats.summary(values) == {"value": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}


def test_no_percentile_with_fewer_than_ten_samples_beyond_it():
    assert stats.percentile(list(range(199)), 95) is None
    assert stats.percentile(list(range(200)), 95) == 189  # ten samples lie beyond
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile(list(range(19)), 50) is None
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)


def test_span_self_time_with_nested_and_sibling_children():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0])
    tracer = stats.Tracer(lambda: next(clock))

    def cell():
        tracer.call("a", "t", lambda: tracer.call("a.inner", "t", lambda: None))
        tracer.call("b", "t", lambda: None)

    tracer.call("cell", "t", cell)
    spans = {span.name: span for span in tracer.spans}
    assert spans["a"].parent == spans["cell"].id
    assert spans["a.inner"].parent == spans["a"].id
    assert {span.trace for span in tracer.spans} == {"t"}
    own = stats.self_times(tracer.spans)
    # cell 0..10 holds a 1..4 and b 6..7; a holds a.inner 2..3
    assert own[spans["cell"].id] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[spans["a"].id] == pytest.approx(3.0 - 1.0)
    assert own[spans["a.inner"].id] == pytest.approx(1.0)
    # overlapping siblings are not subtracted twice
    overlap = [
        stats.Span(0, "p", 0.0, 10.0, None, "t"),
        stats.Span(1, "c1", 1.0, 5.0, 0, "t"),
        stats.Span(2, "c2", 3.0, 7.0, 0, "t"),
    ]
    assert stats.self_times(overlap)[0] == pytest.approx(4.0)


def test_failed_operations_count_against_attempts():
    ops = stats.Ops()
    assert ops.attempt("fine", lambda: 41, lambda result: None) == 41

    def raises():
        raise KeyError("boom")

    assert ops.attempt("raises", raises) is None
    assert ops.attempt("violates", lambda: 3, lambda result: f"got {result}, want 4") is None
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.reasons == ["raises: raised KeyError: 'boom'", "violates: got 3, want 4"]
    ops.fail("fine", "digest differs")  # a later check fails an operation already counted
    assert (ops.attempted, ops.failed) == (3, 3)


def test_calibration_divides_the_hosts_slowdown_out():
    # every clock read is 1.5 reference chunks after the last: the host runs 50 % slow
    ticks = iter(i * 1.5 * stats.Calibrator.CHUNK_REFERENCE_S for i in range(1000))
    calibrator = stats.Calibrator(lambda: next(ticks))
    calibrator.block(0.0)
    assert len(calibrator.samples) == 1  # at least one chunk, however short the block
    calibrator.block(6 * stats.Calibrator.CHUNK_REFERENCE_S)
    samples = calibrator.drain()
    assert len(samples) > 2 and calibrator.samples == []
    assert stats.slowdown(samples) == pytest.approx(1.5)

    # operations are timed apart from the calibration blocks before them
    ops = stats.Ops(stats.Calibrator())
    assert ops.attempt("first", lambda: 1) == 1
    assert ops.attempt("second", lambda: 2) == 2
    ops.calibrate()
    assert len(ops.calibrator.samples) >= 3
    assert 0 < ops.busy_s < sum(ops.calibrator.samples)


def test_compare_verdicts():
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "n": 5}
    assert verdict(steady, {**steady, "value": 1.05}, "lower", 0.10) == "ok"
    assert verdict(steady, {**steady, "value": 1.2}, "lower", 0.10) == "REGRESSED"
    assert verdict(steady, {**steady, "value": 0.8}, "higher", 0.10) == "REGRESSED"
    few = {"value": 1.0, "q1": 0.8, "q3": 1.2, "n": 3}  # too few samples for a spread
    assert verdict(few, {**few, "value": 1.02}, "lower", 0.10) == "ok"
    noisy = {"value": 1.0, "q1": 0.8, "q3": 1.2, "n": 5}
    assert verdict(noisy, {**noisy, "value": 1.02}, "lower", 0.10) == "unresolved"
    assert verdict(noisy, {"value": 0.5, "q1": 0.4, "q3": 0.6, "n": 5}, "lower", 0.10) == "ok"


def test_metric_names_and_units_are_well_formed_and_unique():
    names = [row[0] for row in (*END_TO_END, *PER_LAYER)] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for row in (*END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(row[0]), row
        assert UNIT.fullmatch(row[1]), row
        assert row[2] in ("lower", "higher"), row
    assert all(NAME.fullmatch(name) for name in WORKLOADS)


def test_benchmark_json_agrees_with_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["run_seconds"] == RUN_SECONDS
    # the driver's gate runs the gated workloads; the front end runs all seven
    assert spec["workloads"] == [
        {"name": name, "why": cls.why} for name, cls in WORKLOADS.items() if cls.gated
    ]
    assert len(WORKLOADS) == 7 and len(spec["workloads"]) == 4
    assert all(len(cls.why) <= 200 for cls in WORKLOADS.values())
    assert spec["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END
    ]
    assert any(
        metric["name"] == "setup_s" and metric["bound"] == max(m["bound"] for m in spec["end_to_end"])
        for metric in spec["end_to_end"]
    )
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
    ]
    assert len(spec["per_layer"]) <= 128


def test_end_to_end_smoke_analyze_scale():
    result = run_workload("analyze-scale", passes=2)
    assert result["correct"] and result["failed"] == 0
    assert result["passes"] == 2 and result["attempted"] == 12
    line = json.loads(contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, *_ in END_TO_END}
    for name, unit, *_ in END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0
    assert not list((ROOT / ".perf-tmp").glob("analyze-scale-*"))
