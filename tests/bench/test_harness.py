"""The repro.bench vocabulary as ``evaluate`` drives it: sweeps, reports,
and JSON output."""

from __future__ import annotations

import json
import re

import pytest

from repro.bench import (
    BenchReport,
    JsonReporter,
    Scenario,
    ScenarioResult,
    sweep,
)
from repro.errors import BenchError
from repro.exec import evaluate
from repro.exec.pool import time_cell


def toy_measure(*, x: int, y: int = 1) -> dict:
    return {"product": x * y, "x_back": x}


def test_sweep_builds_cartesian_product_with_formatted_names():
    scenarios = sweep("f{frame}-w{workers}", {"frame": (1, 16), "workers": (2, 4)})
    assert [s.name for s in scenarios] == ["f1-w2", "f1-w4", "f16-w2", "f16-w4"]
    assert scenarios[2].params == {"frame": 16, "workers": 2}


def test_evaluate_collects_metrics_and_wall_time():
    scenarios = sweep("x{x}", {"x": (2, 3)})
    report = evaluate("toy", scenarios, toy_measure)
    assert len(report) == 2
    row = report.row("x3")
    assert row["product"] == 3 and row.params == {"x": 3}
    assert row.wall_seconds >= 0.0


def test_report_select_and_one():
    report = evaluate("toy", sweep("x{x}-y{y}", {"x": (1, 2), "y": (5,)}), toy_measure)
    assert len(report.select(y=5)) == 2
    assert report.one(x=2)["product"] == 10
    assert [row["product"] for row in report.select(y=5)] == [5, 10]
    with pytest.raises(BenchError):
        report.one(y=5)  # two matches
    with pytest.raises(BenchError):
        report.row("nope")


def test_evaluate_rejects_non_mapping_measurements():
    with pytest.raises(BenchError):
        evaluate("bad", [Scenario("s", {})], lambda: 42)


def test_table_renders_all_metrics_aligned():
    report = evaluate("toy", sweep("x{x}", {"x": (7,)}), toy_measure)
    table = report.table()
    lines = table.splitlines()
    assert "scenario" in lines[0] and "product" in lines[0]
    assert "x7" in lines[1] and "7" in lines[1]


def test_json_reporter_writes_bench_file(tmp_path):
    reporter = JsonReporter(tmp_path)
    report = evaluate(
        "figX", sweep("x{x}", {"x": (1, 2)}), toy_measure, reporter=reporter
    )
    path = tmp_path / "BENCH_figX.json"
    assert path == reporter.path_for("figX")
    payload = json.loads(path.read_text())
    assert payload["bench"] == "figX"
    assert len(payload["scenarios"]) == 2
    assert payload["scenarios"][0]["metrics"]["product"] == 1
    assert "created" in payload and "environment" in payload
    # the record carries the engine accounting of the run that wrote it
    assert payload["engine"]["cells"] == payload["engine"]["computed"] == 2
    assert isinstance(report, BenchReport)


def test_json_reporter_honors_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
    reporter = JsonReporter()
    evaluate("figY", [Scenario("only", {})], lambda: {"ok": True}, reporter=reporter)
    assert (tmp_path / "out" / "BENCH_figY.json").exists()


def test_a_bench_dir_that_is_a_file_is_a_bench_error(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_BENCH_DIR", str(blocker))
    with pytest.raises(BenchError, match=re.escape(f"cannot write {blocker}")):
        evaluate("figZ", [Scenario("only", {})], lambda: {"ok": True}, reporter=JsonReporter())


def test_scenario_result_is_json_round_trippable():
    result = ScenarioResult("s", {"a": 1}, {"m": 2.5}, 0.01)
    assert json.loads(json.dumps(result.metrics)) == {"m": 2.5}


def test_time_cell_measures_wall_and_cpu():
    value, wall, cpu = time_cell(lambda a: sum(range(a)), {"a": 10_000})
    assert value == sum(range(10_000))
    assert wall >= 0.0 and cpu >= 0.0


def test_evaluate_records_cpu_seconds_per_scenario():
    report = evaluate("toy", sweep("x{x}", {"x": (2,)}), toy_measure)
    row = report.row("x2")
    assert row.cpu_seconds is not None and row.cpu_seconds >= 0.0
    # ...and the JSON payload carries it alongside wall_seconds
    payload = report.to_dict()
    assert "cpu_seconds" in payload["scenarios"][0]


def test_bench_json_environment_records_cpu_count(tmp_path):
    import json
    import os

    reporter = JsonReporter(tmp_path)
    evaluate("figZ", [Scenario("only", {})], lambda: {"ok": True}, reporter=reporter)
    payload = json.loads(reporter.path_for("figZ").read_text())
    assert payload["environment"]["cpu_count"] == os.cpu_count()


def test_bench_json_environment_names_the_backend_of_its_own_cells(
    tmp_path, monkeypatch
):
    """The backend comes from the report's cells, not from what the writing
    process ran last: a socket record carries its transport block, and a
    record written after it in the same process still says ``sim``."""
    for name in ("BLAZES_NET_HOST", "BLAZES_NET_TIME_SCALE"):
        monkeypatch.delenv(name, raising=False)
    reporter = JsonReporter(tmp_path)
    cell = {"backend": "socket", "timeout": 5.0}
    socket = BenchReport("sock", [ScenarioResult("c", cell, {"ok": True}, 0.0)])
    environment = json.loads(reporter.write(socket).read_text())["environment"]
    assert environment["backend"] == "socket"
    assert environment["transport"] == {
        "host": "127.0.0.1", "time_scale": 3.0, "timeout": 5.0,
        "retransmit_interval": 0.2, "reconnect_backoff": 0.05,
    }
    sim = BenchReport("sim", [ScenarioResult("c", {}, {"ok": True}, 0.0)])
    environment = json.loads(reporter.write(sim).read_text())["environment"]
    assert (environment["backend"], environment["transport"]) == ("sim", None)


def test_figure_scripts_reject_unknown_flags(capsys):
    """A typo must not silently run the (much larger) default tier."""
    from benchmarks.bench_fig12_adreport_5servers import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--smok"])
    assert exit_info.value.code == 2
    assert "--smok" in capsys.readouterr().err
