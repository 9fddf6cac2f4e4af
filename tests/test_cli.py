"""Tests for the ``blazes`` command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import app_names
from repro.cli import build_parser, main

SPEC = """
name: wc
components:
  Splitter:
    annotations: [{ from: tweets, to: words, label: CR }]
  Count:
    annotations:
      - { from: words, to: counts, label: OW, subscript: [word, batch] }
  Commit:
    annotations: [{ from: counts, to: db, label: CW }]
streams:
  - { name: tweets, to: Splitter.tweets%SEAL% }
  - { name: words, from: Splitter.words, to: Count.words }
  - { name: counts, from: Count.counts, to: Commit.counts }
  - { name: db, from: Commit.db }
"""


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Audits cache by default; never let a test write ``.blazes-cache/``
    into the working tree (or hit another test's entries)."""
    monkeypatch.setenv("BLAZES_CACHE_DIR", str(tmp_path / "cell-cache"))


@pytest.fixture
def spec_file(tmp_path):
    def write(sealed: bool):
        seal = ", seal: [batch]" if sealed else ""
        path = tmp_path / "wc.yaml"
        path.write_text(SPEC.replace("%SEAL%", seal))
        return str(path)

    return write


def test_analyze_consistent_spec_exits_zero(spec_file, capsys):
    assert main(["analyze", spec_file(sealed=True)]) == 0
    out = capsys.readouterr().out
    assert "consistent without coordination" in out


def test_analyze_inconsistent_spec_exits_two(spec_file, capsys):
    assert main(["analyze", spec_file(sealed=False)]) == 2
    out = capsys.readouterr().out
    assert "Run" in out


def test_analyze_derivations_flag(spec_file, capsys):
    assert main(["analyze", spec_file(sealed=True), "--derivations"]) == 0
    out = capsys.readouterr().out
    assert "(p)" in out


def test_plan_prints_strategies(spec_file, capsys):
    assert main(["plan", spec_file(sealed=True)]) == 0
    out = capsys.readouterr().out
    assert "seal-based coordination at Count" in out


def test_missing_spec_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("components: {}\nstreams: []")
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_lint_clean_spec(spec_file, capsys):
    assert main(["lint", spec_file(sealed=True)]) == 0
    assert "no design-pattern findings" in capsys.readouterr().out


def test_lint_reports_findings(tmp_path, capsys):
    spec = tmp_path / "bad.yaml"
    spec.write_text(
        """
components:
  Agg:
    rep: true
    annotations: [{ from: i, to: o, label: OW, subscript: [k] }]
streams:
  - { name: i, to: Agg.i }
  - { name: o, from: Agg.o }
"""
    )
    assert main(["lint", str(spec)]) == 3
    assert "replicated-nonconfluent" in capsys.readouterr().out


def test_lint_checks_the_apps_own_plan(capsys, monkeypatch):
    """An imposed-ordering plan keeps the replicated-nonconfluent finding,
    and `lint` asks the app for that plan instead of re-synthesizing one."""
    from repro.core import patterns

    plans = []
    real = patterns.lint_dataflow
    monkeypatch.setattr(
        patterns,
        "lint_dataflow",
        lambda result, plan=None, **kw: plans.append(plan) or real(result, plan, **kw),
    )
    assert main(["lint", "adnet", "--strategy", "ordered"]) == 3
    assert "[replicated-nonconfluent] Report" in capsys.readouterr().out
    assert plans[0].strategy_for("Report").topic == "report.inputs"
    assert main(["lint", "adnet", "--strategy", "seal"]) == 0


def test_apps_subcommand_lists_registry(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("wordcount", "adnet", "kvs"):
        assert name in out
    assert "sealed*" in out  # default strategy marker


def test_apps_subcommand_json(capsys):
    assert main(["apps", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in catalog}
    assert by_name["wordcount"]["backend"] == "storm"
    assert "eager" in by_name["wordcount"]["strategies"]
    assert by_name["kvs"]["auditable"] is True


@pytest.mark.parametrize(
    "verb", [("run", "--smoke", "--json"), ("analyze", "--json"), ("plan", "--json")],
    ids=lambda verb: verb[0],
)
@pytest.mark.parametrize("app", app_names())
def test_every_registry_report_parses(app, verb, capsys):
    """What CI archives per registered app is JSON on every verb."""
    code = main([verb[0], app, *verb[1:]])
    assert code in ((0, 2) if verb[0] == "analyze" else (0,))
    assert json.loads(capsys.readouterr().out)


def test_analyze_registered_app(capsys):
    assert main(["analyze", "wordcount"]) == 0
    out = capsys.readouterr().out
    assert "consistent without coordination" in out
    assert main(["analyze", "wordcount", "--strategy", "eager"]) == 2


def test_analyze_json_report(capsys):
    assert main(["analyze", "kvs", "--strategy", "uncoordinated", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is False
    assert report["sinks"]["cached"] == "Diverge"
    assert "Store" in report["components_needing_coordination"]


def test_analyze_reports_the_sequencer_an_ordered_app_imposes(capsys):
    """The report's plan is the app's own: under ``ordered``, the sequencer
    on the app's topic, not a synthesized fallback."""
    main(["analyze", "kvs", "--strategy", "ordered"])
    out = capsys.readouterr().out
    plan = out.split("Coordination plan")[1]
    assert "sequencer-ordered delivery installed at Store" in plan
    assert "topic 'kvs.inputs'" in plan
    assert "no input stream is sealed" not in plan


@pytest.mark.parametrize("app", ["kvs", "adnet", "q-campaign", "q-poor", "q-window"])
def test_analyze_json_plan_is_the_plan_verb_s(app, capsys):
    main(["analyze", app, "--strategy", "ordered", "--json"])
    analyzed = json.loads(capsys.readouterr().out)["plan"]
    assert main(["plan", app, "--strategy", "ordered", "--json"]) == 0
    assert analyzed == json.loads(capsys.readouterr().out)
    assert {s["kind"] for s in analyzed["strategies"]} >= {"ordered"}


def test_plan_json_report(capsys):
    assert main(["plan", "kvs", "--strategy", "sealed", "--json"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["uses_global_order"] is False
    seal = next(s for s in plan["strategies"] if s["component"] == "Store")
    assert seal["kind"] == "seal"
    assert seal["partitions"] == [{"stream": "puts", "key": ["key"]}]


def test_strategy_flag_rejected_for_spec_paths(spec_file, capsys):
    assert main(["analyze", spec_file(sealed=True), "--strategy", "x"]) == 1
    assert "registered apps" in capsys.readouterr().err


def test_unknown_target_is_a_clean_error(capsys):
    assert main(["analyze", "no-such-app.yaml"]) == 1
    assert "neither a registered app" in capsys.readouterr().err


def test_run_subcommand(capsys):
    assert main([
        "run", "wordcount", "--smoke", "--set", "total_batches=3",
    ]) == 0
    out = capsys.readouterr().out
    assert "app=wordcount" in out and "strategy=sealed" in out
    assert "batches_acked" in out and ": 3" in out


def test_run_subcommand_json(capsys):
    assert main([
        "run", "adnet", "--strategy", "independent-seal", "--smoke", "--json",
    ]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["app"] == "adnet"
    assert outcome["metrics"]["processed"] == outcome["metrics"]["total_entries"]
    assert outcome["metrics"]["replicas_agree"] is True


def test_run_unknown_app_is_a_clean_error(capsys):
    assert main(["run", "nope"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_run_bad_override_is_a_clean_error(capsys):
    assert main(["run", "wordcount", "--set", "workers"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_run_rejects_a_replay_timeout_that_is_not_positive(capsys, timeout):
    assert main(["run", "wordcount", "--smoke", "--set", f"replay_timeout={timeout}"]) == 1
    assert "replay_timeout must be > 0" in capsys.readouterr().err


def test_a_replay_timeout_shorter_than_a_round_trip_ends_unacked(capsys):
    """Every attempt is superseded before it can be acked; the spout gives
    each batch up after MAX_REPLAYS re-emissions instead of livelocking."""
    assert main([
        "run", "wordcount", "--smoke", "--json", "--set", "replay_timeout=0.0001",
    ]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["batches_acked"] < 3  # the smoke run's total
    assert metrics["replays"] > 0


def test_run_reserved_override_is_a_clean_error(capsys):
    for key, flag in (("seed", "--seed"), ("smoke", "--smoke"), ("strategy", "--strategy")):
        assert main(["run", "wordcount", "--set", f"{key}=1"]) == 1
        assert flag in capsys.readouterr().err


def test_run_unknown_override_key_is_a_clean_error(capsys):
    assert main(["run", "wordcount", "--smoke", "--set", "bogus=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bogus" in err


@pytest.mark.parametrize("key", ["workload.requests", "batch-size"])
def test_an_unknown_override_key_with_any_characters_is_a_clean_error(key, capsys):
    assert main(["run", "adnet", "--smoke", "--set", f"{key}=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --set override") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "app,override,named",
    [
        ("kvs", "workload=3", "KvsWorkload"),
        ("adnet", "workload=3", "AdWorkload"),
        ("q-poor", "workload=3", "AdWorkload"),
        ("wordcount", "parallelism=3", "parallelism"),
        ("wordcount", 'frame_size="a"', "frame_size"),
        ("wordcount", 'replay_timeout="x"', "replay_timeout"),
        # an unknown report query or keyword, a word count that sends nothing
        ("adnet", "query=NOPE", "unknown query 'NOPE'"),
        ("adnet", 'query_kwargs={"nope": 1}', "'nope'"),
        ("wordcount", "batch_size=0", "batch_size must be >= 1, got 0"),
        ("wordcount", "total_batches=-1", "total_batches must be >= 1, got -1"),
        ("wordcount", "batch_size=NaN", "batch_size must be >= 1, got nan"),
    ],
)
def test_run_override_of_the_wrong_type_is_a_clean_error(app, override, named, capsys):
    assert main(["run", app, "--smoke", "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("where", ["rundir", "rundir-parent", "cache", "bench"])
def test_an_unusable_output_location_is_a_clean_error(where, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = ["audit", "--smoke", "--apps", "kvs", "--schedules", "baseline", "--seeds", "1"]
    if where == "cache":
        monkeypatch.setenv("BLAZES_CACHE_DIR", str(blocker))
        argv.append("--no-report")
    elif where == "bench":
        monkeypatch.setenv("REPRO_BENCH_DIR", str(blocker))
        argv.append("--no-cache")
    else:
        rundir = blocker if where == "rundir" else blocker / "sub" / "run"
        argv = ["run", "kvs", "--smoke", "--rundir", str(rundir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: cannot write" in err and str(blocker) in err and "Traceback" not in err


def test_analyze_json_includes_derivations_when_asked(capsys):
    assert main(["analyze", "wordcount", "--json", "--derivations"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "Count.counts" in report["derivations"]
    assert main(["analyze", "wordcount", "--json"]) == 0
    assert "derivations" not in json.loads(capsys.readouterr().out)


def test_audit_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main([
        "audit", "--smoke", "--apps", "kvs", "--seeds", "7", "11",
    ]) == 0
    out = capsys.readouterr().out
    assert "kvs/uncoordinated/baseline" in out
    assert "sound: all" in out
    assert "Diverge" in out
    report = (tmp_path / "BENCH_audit-smoke.json").read_text()
    assert "observed_severity" in report


def test_audit_subcommand_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main([
        "audit", "--smoke", "--apps", "wordcount", "--seeds", "7", "11",
        "--no-report", "--evidence",
    ]) == 0
    out = capsys.readouterr().out
    assert "wordcount/eager" in out
    assert "across seeds" in out  # evidence lines printed
    assert not list(tmp_path.glob("BENCH_*"))  # --no-report wrote nothing


def test_audit_matrix_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["audit", "--matrix", "--smoke", "--seeds", "7", "11"]) == 0
    out = capsys.readouterr().out
    assert "matrix matches Figure 6" in out
    assert "q-thresh/uncoordinated/baseline" in out
    assert "tightness:" in out
    report = (tmp_path / "BENCH_fig6-matrix-smoke.json").read_text()
    assert "consistent" in report


@pytest.mark.parametrize(
    "argv,sweep,flag",
    [
        (["--matrix", "--apps", "kvs"], "audit --matrix", "--apps"),
        (["--matrix", "--timeout", "5"], "audit --matrix", "--timeout"),
        (["--search", "--apps", "kvs", "--candidates", "1", "--timeout", "5"], "audit --search", "--timeout"),
        (["--search", "--apps", "kvs", "--candidates", "1", "--evidence"], "audit --search", "--evidence"),
        (["--apps", "kvs", "--candidates", "3"], "audit", "--candidates"),
        (["--apps", "kvs", "--budget", "8"], "audit", "--budget"),
        (["--apps", "kvs", "--search-seed", "1"], "audit", "--search-seed"),
        (["--matrix", "--backend", "socket"], "audit --matrix", "--backend"),
        (["--search", "--apps", "kvs", "--backend", "socket"], "audit --search", "--backend"),
    ],
)
def test_a_flag_the_sweep_does_not_read_is_an_error(argv, sweep, flag, capsys):
    assert main(["audit", "--smoke", *argv, "--no-cache", "--no-report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {sweep} does not read {flag}" in captured.err


@pytest.mark.parametrize("argv", [["--matrix"], ["--search", "--apps", "kvs"]])
def test_backend_sim_names_the_simulator_every_sweep_runs_on(argv):
    from repro.cli import _reject_unread_flags

    _reject_unread_flags(build_parser().parse_args(["audit", *argv, "--backend", "sim"]))


def test_audit_matrix_sweeps_only_the_schedules_named(capsys):
    assert main([
        "audit", "--matrix", "--smoke", "--schedules", "baseline", "--no-cache",
        "--no-report", "--json",
    ]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert len(cells) == 12 and {cell["name"].rsplit("/", 1)[1] for cell in cells} == {"baseline"}


def test_audit_misspelt_schedule_is_not_vacuously_sound(capsys):
    assert main([
        "audit", "--smoke", "--schedules", "reorder-burts", "--no-report", "--json",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no {"cells": 0, "sound": true} payload
    assert "reorder-burts" in captured.err and "reorder-burst" in captured.err


def test_audit_of_zero_cells_never_exits_zero(capsys):
    assert main(["audit", "--smoke", "--apps", ",", "--no-report"]) == 1
    assert "no cells" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["audit", "--search"], ["frontier"]])
def test_adaptive_sweep_of_zero_cells_never_exits_zero(verb, capsys):
    """Not "0 cells ... sound" nor "0/0 cells hold": an empty first batch
    is the sweep loop's error, whichever sweep yielded it."""
    assert main([*verb, "--smoke", "--apps", ",", "--no-cache", "--no-report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "selected no cells" in captured.err


@pytest.mark.parametrize(
    "argv", [["audit", "--search", "--budget", "-5"], ["frontier", "--steps", "-1"]]
)
def test_a_negative_sweep_bound_is_an_error(argv, capsys):
    """A negative shrink budget or bisection step count is refused, not
    recorded beside a run that shrank or bisected nothing."""
    assert main([*argv, "--smoke", "--apps", "kvs", "--no-cache", "--no-report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 0" in captured.err


def test_a_repeated_seed_is_an_error(capsys):
    """``--seeds 7 7`` would run seed 7 twice per cell and let the
    cross-run check compare a run with itself."""
    argv = ["audit", "--smoke", "--apps", "kvs", "--seeds", "7", "7", "--no-cache", "--no-report"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seeds must be distinct, got 7 7\n"


def test_a_search_of_no_candidates_is_an_error(capsys):
    """A candidate count below one names the flag, rather than ending in
    "the search selected no cells"."""
    argv = ["audit", "--search", "--smoke", "--apps", "kvs", "--candidates", "-1", "--no-cache", "--no-report"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: candidates must be >= 1, got -1\n"


def test_matrix_of_zero_cells_is_an_error(monkeypatch):
    import repro.chaos.campaign as campaign
    from repro.errors import BlazesError

    monkeypatch.setattr(campaign, "matrix_apps", lambda: ())
    with pytest.raises(BlazesError, match="selected no cells"):
        campaign.matrix_campaign(smoke=True)


def test_audit_json_reports_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main([
        "audit", "--smoke", "--apps", "kvs", "--seeds", "7",
        "--no-report", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["sound"] is True
    assert {"tight_cells", "tightness", "anomalies"} <= set(payload["summary"])
    assert all("predicted" in cell for cell in payload["cells"])


def test_plan_uses_the_apps_ordered_plan(capsys):
    assert main(["plan", "q-poor", "--strategy", "ordered", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {s["component"]: s["kind"] for s in payload["strategies"]}
    assert kinds == {"Report": "ordered", "Cache": "none"}
    assert payload["uses_global_order"] is True
    assert main(["plan", "q-poor", "--strategy", "sealed", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {s["component"]: s["kind"] for s in payload["strategies"]}
    assert kinds["Report"] == "seal"


def test_parser_rejects_unknown_strategy():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["adreport", "--strategy", "chaos"])


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--version"])
    assert excinfo.value.code == 0


def test_run_profile_flag_prints_snapshot(capsys):
    assert main(["run", "wordcount", "--strategy", "eager", "--smoke", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out and "events/second" in out
    assert "coordination: " in out


def test_run_profile_json_embeds_blocks(capsys):
    assert main([
        "run", "adnet", "--strategy", "seal", "--smoke", "--profile", "--json",
    ]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["metrics"]["coordcost"]["coordination_share"] > 0
    assert outcome["metrics"]["profile"]["events"] > 0


def test_run_rundir_writes_and_validates(tmp_path, capsys):
    """One run directory per coordination strategy validates, and they
    order as the paper's trade-off does: no coordination traffic without
    coordination, some under sealing, more under ordering."""
    from repro.obs.rundir import validate_rundir

    shares = {}
    for app, strategy, extra in (
        ("wordcount", "eager", ["--profile"]),
        ("adnet", "seal", []),
        ("kvs", "ordered", []),
    ):
        rundir = tmp_path / f"{app}-{strategy}"
        assert main([
            "run", app, "--strategy", strategy, "--smoke", "--rundir", str(rundir),
            *extra,
        ]) == 0
        assert str(rundir) in capsys.readouterr().err
        info = validate_rundir(rundir)
        assert (info["meta"]["app"], info["meta"]["strategy"]) == (app, strategy)
        assert info["rows"]["trace.jsonl"] > 0
        assert info["rows"]["spans.jsonl"] > 0
        shares[strategy] = info["coordcost"]["coordination_share"]
    assert shares["eager"] == 0.0, shares
    assert 0.0 < shares["seal"] < shares["ordered"], shares


def test_stats_subcommand_covers_every_strategy(capsys):
    from repro.api import get_app

    assert main(["stats", "adnet", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "coordination cost" in out
    for strategy in get_app("adnet").strategies:
        assert strategy in out


def test_stats_subcommand_json(capsys):
    assert main(["stats", "wordcount", "--smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["app"] == "wordcount"
    # the eager storm topology coordinates nothing
    assert payload["coordcost"]["eager"]["coordination_share"] == 0.0
    assert payload["coordcost"]["transactional"]["coordination_share"] > 0.0


def test_stats_unknown_strategy_is_a_clean_error(capsys):
    assert main(["stats", "adnet", "--strategy", "nope"]) == 1
    assert "unknown strategy" in capsys.readouterr().err


def test_trace_subcommand_lists_lineages(capsys):
    assert main(["trace", "kvs", "--strategy", "ordered", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "lineages" in out and "topic:kvs.inputs" in out


def test_trace_subcommand_timeline_and_json(capsys):
    assert main([
        "trace", "kvs", "--strategy", "ordered", "--smoke",
        "--id", "topic:kvs.inputs", "--limit", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "timeline topic:kvs.inputs" in out and "elided" in out
    assert main([
        "trace", "kvs", "--strategy", "ordered", "--smoke",
        "--id", "topic:kvs.inputs", "--json",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(row["lineage"] == "topic:kvs.inputs" for row in rows)


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_trace_rejects_a_limit_below_one(capsys, limit):
    assert main(["trace", "kvs", "--smoke", "--limit", limit]) == 1
    assert main(["trace", "kvs", "--smoke", "--id", "part:k0", "--limit", limit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"--limit must be >= 1, got {limit}") == 2


def test_trace_unknown_lineage_suggests_known_ids(capsys):
    assert main([
        "trace", "kvs", "--strategy", "ordered", "--smoke", "--id", "batch:999",
    ]) == 0
    out = capsys.readouterr().out
    assert "no span events for 'batch:999'" in out
    assert "known lineages" in out


AUDIT_ARGS = [
    "audit", "--smoke", "--apps", "wordcount", "--seeds", "7",
    "--no-report", "--json",
]


def _audit_payload(capsys, *extra):
    assert main(AUDIT_ARGS + list(extra)) == 0
    return json.loads(capsys.readouterr().out)


def test_audit_caches_cells_across_invocations(capsys):
    cold = _audit_payload(capsys)
    assert cold["engine"]["cache_enabled"] is True
    assert cold["engine"]["cache_hits"] == 0
    assert cold["engine"]["cache_misses"] == cold["engine"]["cells"]
    warm = _audit_payload(capsys)
    assert warm["engine"]["cache_hits"] == warm["engine"]["cells"]
    assert warm["engine"]["computed"] == 0
    # same cells, same verdicts: only the engine accounting may differ
    cold.pop("engine"), warm.pop("engine")
    assert cold == warm


def test_audit_no_cache_flag_computes_everything(capsys):
    _audit_payload(capsys)  # populate the cache...
    payload = _audit_payload(capsys, "--no-cache")  # ...then bypass it
    assert payload["engine"]["cache_enabled"] is False
    assert payload["engine"]["computed"] == payload["engine"]["cells"]


def test_audit_jobs_flag_is_byte_identical_to_serial(capsys):
    from repro.exec import shutdown_shared_pool

    try:
        serial = _audit_payload(capsys, "--no-cache")
        pooled = _audit_payload(capsys, "--no-cache", "--jobs", "2")
    finally:
        shutdown_shared_pool()
    assert pooled["engine"]["jobs"] == 2
    assert pooled["engine"]["pool"]["tasks"] == pooled["engine"]["cells"]
    serial.pop("engine"), pooled.pop("engine")
    assert serial == pooled


def test_audit_text_mode_prints_engine_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main([
        "audit", "--smoke", "--apps", "wordcount", "--seeds", "7", "--no-report",
    ]) == 0
    out = capsys.readouterr().out
    assert "engine:" in out and "cache" in out


def test_a_pooled_audit_prints_its_pool(tmp_path, monkeypatch, capsys):
    """The text a pooled sweep ends in: the pool's part of the engine line."""
    from repro.exec import shutdown_shared_pool

    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    try:
        argv = ["audit", "--smoke", "--apps", "kvs", "--jobs", "2", "--seeds", "7", "--no-report"]
        assert main(argv) == 0
    finally:
        shutdown_shared_pool()
    last = capsys.readouterr().out.rstrip().splitlines()[-1]
    assert last.startswith("engine: ") and "pool jobs=2 util=" in last


def test_audit_bad_jobs_is_a_clean_error(capsys):
    assert main(AUDIT_ARGS + ["--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


def test_cache_subcommand_stats_and_clear(capsys):
    """``cache stats`` prints the store and nothing else: a cached audit
    leaves only its cell objects, and the run counted its own hits."""
    _audit_payload(capsys)  # populate
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "cached cells" in out and "engine" not in out
    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert set(stats) == {"directory", "entries", "size_bytes"}
    assert stats["entries"] > 0
    assert [path.name for path in Path(stats["directory"]).iterdir()] == ["objects"]
    assert main(["cache", "clear"]) == 0
    assert "cleared" in capsys.readouterr().out
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_every_sweep_prints_one_engine_block_shape(capsys):
    """The audit, the matrix, the search and the frontier each print the
    fold of their batches, in the block ``evaluate`` builds."""
    from repro.exec import evaluate

    common = ["--smoke", "--seeds", "7", "--no-cache", "--no-report", "--json"]
    sweeps = (
        ["audit", "--apps", "kvs", "--schedules", "baseline"],
        ["audit", "--matrix", "--schedules", "baseline"],
        ["audit", "--search", "--apps", "kvs", "--candidates", "1", "--budget", "0"],
        ["frontier", "--apps", "kvs", "--steps", "0"],
    )
    shapes = []
    for argv in sweeps:
        assert main([*argv, *common]) == 0
        shapes.append(list(json.loads(capsys.readouterr().out)["engine"]))
    assert shapes == [list(evaluate("toy", [], dict).engine)] * len(sweeps)


def test_a_sweep_prints_the_fold_of_its_batches(monkeypatch, capsys):
    """An adaptive sweep evaluates batch after batch, and its engine block
    is the fold of their blocks: every batch and cell in it."""
    from repro.exec import engine as engine_module

    batches, real = [], engine_module.evaluate

    def evaluate(*args, **kwargs):
        report = real(*args, **kwargs)
        batches.append(report.engine)
        return report

    monkeypatch.setattr(engine_module, "evaluate", evaluate)
    argv = [
        "audit", "--search", "--smoke", "--apps", "wordcount", "--candidates", "2",
        "--budget", "8", "--no-report", "--json",
    ]
    assert main(argv) == 0
    engine = json.loads(capsys.readouterr().out)["engine"]
    assert engine["batches"] == len(batches) > 1
    assert engine["cells"] == sum(block["cells"] for block in batches)
    assert json.loads(json.dumps(engine_module.fold(batches))) == engine


def test_a_serial_audit_counts_its_cells_events(tmp_path):
    from repro.chaos.campaign import audit_campaign
    from repro.exec import CellCache

    report = audit_campaign(["kvs"], smoke=True, seeds=(7,), cache=CellCache(tmp_path))
    assert report.engine["events"] == sum(r["events"] for r in report) > 0
    assert [path.name for path in tmp_path.iterdir()] == ["objects"]


@pytest.mark.parametrize("argv", (["stats"], ["stats", "--engine"]), ids=("no-app", "engine"))
def test_stats_needs_an_app_and_has_no_engine_flag(argv, capsys):
    """``blazes stats`` is the coordination-cost table of one app, a usage
    error without it."""
    with pytest.raises(SystemExit) as usage:
        main(argv)
    assert usage.value.code == 2
    assert "app" in capsys.readouterr().err


def _underpredicting_app(name):
    """The kvs deployment declared with confluent annotations everywhere:
    its uncoordinated replicas diverge, but it predicts ``Async``."""
    from repro.api import BlazesApp, annotate
    from repro.apps import kvs

    @annotate(frm="put", to="getr", label="CR")
    @annotate(frm="get", to="getr", label="CR")
    class Store:
        pass

    @annotate(frm="response", to="cached", label="CR")
    class Cache:
        pass

    profile = kvs.APP.audit_spec
    return (
        BlazesApp(name, backend="bloom", runner=kvs._run_app)
        .component("Store", Store)
        .component("Cache", Cache)
        .stream("puts", to="Store.put")
        .stream("gets", to="Store.get")
        .stream("responses", frm="Store.getr", to="Cache.response")
        .stream("cached", frm="Cache.cached")
        .strategy("uncoordinated", default=True)
        .audit_profile(
            strategies=("uncoordinated",), horizon=profile.horizon,
            schedules=profile.schedules, run_params=profile.run_params, roles=profile.roles,
            committed=profile.committed, emitted=profile.emitted, truth=profile.truth,
            envelope=profile.envelope,
        )
    )


EXIT_CASES = {
    0: lambda spec: ["analyze", spec(sealed=True)],
    1: lambda spec: ["run", "no-such-app"],
    2: lambda spec: ["analyze", spec(sealed=False)],
    3: lambda spec: ["lint", "adnet", "--strategy", "ordered"],
    4: lambda spec: ["audit", "--smoke", "--apps", "under-predicts", "--seeds", "1", "--no-report"],
    5: lambda spec: ["run", "kvs", "--backend", "socket", "--smoke", "--timeout", "0.01"],
}


@pytest.mark.parametrize("code", sorted(EXIT_CASES))
def test_every_documented_exit_code(code, spec_file, capsys):
    from repro.api import register
    from repro.api.registry import _REGISTRY

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"\n| {code} | " in readme, f"exit code {code} is not in README's table"
    register(_underpredicting_app("under-predicts"))
    try:
        assert main(EXIT_CASES[code](spec_file)) == code
    finally:
        _REGISTRY.pop("under-predicts", None)
    if code == 2:  # the collision the table notes: a usage error exits 2 too
        with pytest.raises(SystemExit) as usage:
            main(["no-such-verb"])
        assert usage.value.code == 2
