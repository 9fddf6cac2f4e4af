"""The ``blazes`` command-line interface.

Every subcommand resolves applications through the :mod:`repro.api`
registry — the same catalog the benchmarks and the audit campaign use:

``blazes apps [--json]``
    List the registered applications, backends, and strategies.
``blazes analyze TARGET [--strategy S] [--derivations] [--json]``
    Run the label analysis on a registered app (or a YAML spec file,
    the legacy grey-box path) and print the report.
``blazes plan TARGET [--strategy S] [--json]``
    Print only the synthesized coordination plan.
``blazes lint TARGET [--strategy S]``
    Check the Section X design patterns.
``blazes run APP [--strategy S] [--seed N] [--smoke] [--json] [--set k=v]
[--profile] [--rundir DIR]``
    Execute a registered app on its simulator backend under one
    coordination strategy.  ``--profile`` attaches a
    :class:`~repro.sim.profile.SimProfiler` and prints its snapshot;
    ``--rundir DIR`` archives the run as a machine-readable directory
    (``meta.json``, ``metrics.json``, ``coordcost.json``,
    ``trace.jsonl``, ``spans.jsonl`` — see :mod:`repro.obs.rundir`).
``blazes stats APP [--strategy S] [--seed N] [--smoke] [--json]``
    Run the app under each strategy with telemetry attached and print
    the per-strategy coordination-cost breakdown (messages by plane,
    coordination share, decisions, simulated-time overhead).
    ``blazes stats --engine`` instead prints the evaluation engine's
    cumulative counters (cells, cache hits, pool utilization,
    per-worker throughput) from the cache directory's ``stats.json``.
``blazes trace APP [--strategy S] [--id LINEAGE] [--limit N] [--json]``
    Run the app with causal span tracing and print the busiest lineage
    ids, or — with ``--id`` — one lineage's causal timeline (the frames,
    votes, replays, and sequencer decisions behind it).
``blazes audit [--smoke] [--jobs N] [--no-cache] [--apps LIST] ...``
    Run the fault-injection audit campaign: every (app, strategy, fault
    schedule) cell is executed for several seeds and the observed anomaly
    is checked against the label the analysis predicted.  ``--jobs N``
    (or ``BLAZES_JOBS``) fans the independent cells out over the warm
    worker pool; previously computed cells are served from the
    content-addressed ``.blazes-cache/`` unless ``--no-cache``.
    ``--matrix`` restricts the sweep to the Figure 6 query apps, renders
    the observed per-query coordination-requirement matrix, and
    additionally exits nonzero when the matrix deviates from the paper's
    expectation.  ``--search`` instead *generates* seeded composite fault
    schedules inside each app's declared envelope, evaluates them as
    ordinary audit cells, and delta-debugs every cell observed beyond
    ``Async`` down to a 1-minimal counterexample schedule
    (:mod:`repro.chaos.search`).
``blazes frontier [--smoke] [--steps N] [--jobs N] [--apps LIST] ...``
    Map the severity frontier: per (app, strategy), bisect the intensity
    of the app's composed fault envelope to the smallest intensity whose
    observed anomaly exceeds ``Async``, and write ``BENCH_frontier.json``.
``blazes cache stats|clear [--json]``
    Inspect or empty the evaluation engine's cell cache.

``--json`` prints the machine-readable report
(:func:`repro.core.report.report_to_dict`), so CI and the audit can diff
predictions without scraping text.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any

from repro import __version__
from repro.core import (
    analyze,
    choose_strategies,
    load_spec,
    plan_to_dict,
    render_report,
    report_to_dict,
)
from repro.core.derivation import render_all
from repro.errors import BlazesError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blazes",
        description="Blazes: coordination analysis for distributed programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    apps_cmd = sub.add_parser("apps", help="list the registered applications")
    apps_cmd.set_defaults(func=_cmd_apps)
    apps_cmd.add_argument("--json", action="store_true", help="JSON output")

    target_help = "a registered app name or a path to a Blazes YAML spec"
    analyze_cmd = sub.add_parser("analyze", help="analyze an app or spec file")
    analyze_cmd.set_defaults(func=_cmd_analyze)
    analyze_cmd.add_argument("target", help=target_help)
    analyze_cmd.add_argument(
        "--strategy", default=None, help="strategy variant (registered apps)"
    )
    analyze_cmd.add_argument(
        "--derivations", action="store_true", help="include derivation trees"
    )
    analyze_cmd.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    plan_cmd = sub.add_parser("plan", help="print the coordination plan")
    plan_cmd.set_defaults(func=_cmd_plan)
    plan_cmd.add_argument("target", help=target_help)
    plan_cmd.add_argument("--strategy", default=None)
    plan_cmd.add_argument(
        "--json", action="store_true", help="machine-readable plan"
    )

    lint_cmd = sub.add_parser(
        "lint", help="check the Section X design patterns"
    )
    lint_cmd.set_defaults(func=_cmd_lint)
    lint_cmd.add_argument("target", help=target_help)
    lint_cmd.add_argument("--strategy", default=None)

    run_cmd = sub.add_parser("run", help="execute a registered app")
    run_cmd.set_defaults(func=_cmd_run)
    run_cmd.add_argument("app", help="a registered app name (see `blazes apps`)")
    run_cmd.add_argument(
        "--strategy", default=None, help="deployment strategy (app default otherwise)"
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--smoke", action="store_true", help="CI-sized workload defaults"
    )
    run_cmd.add_argument(
        "--json", action="store_true", help="print the outcome as JSON"
    )
    run_cmd.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra runner keyword (JSON value, e.g. --set workers=8)",
    )
    run_cmd.add_argument(
        "--profile",
        action="store_true",
        help="attach the sim profiler and print its snapshot",
    )
    run_cmd.add_argument(
        "--rundir",
        default=None,
        metavar="DIR",
        help="archive the run as a machine-readable run directory",
    )
    run_cmd.add_argument(
        "--backend",
        choices=("sim", "socket"),
        default=None,
        help="execution backend: the discrete-event simulator (default) "
        "or real TCP transport",
    )
    run_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget for a socket run; on expiry the services "
        "tear down cleanly and the exit code is 5",
    )

    stats_cmd = sub.add_parser(
        "stats", help="per-strategy coordination-cost breakdown"
    )
    stats_cmd.set_defaults(func=_cmd_stats)
    stats_cmd.add_argument(
        "app",
        nargs="?",
        default=None,
        help="a registered app name (see `blazes apps`); omit with --engine",
    )
    stats_cmd.add_argument(
        "--strategy", default=None, help="one strategy only (all otherwise)"
    )
    stats_cmd.add_argument("--seed", type=int, default=0)
    stats_cmd.add_argument(
        "--smoke", action="store_true", help="CI-sized workload defaults"
    )
    stats_cmd.add_argument(
        "--engine",
        action="store_true",
        help="print the evaluation engine's cumulative counters instead",
    )
    stats_cmd.add_argument(
        "--json", action="store_true", help="machine-readable coordcost blocks"
    )

    trace_cmd = sub.add_parser(
        "trace", help="causal span timelines for one run"
    )
    trace_cmd.set_defaults(func=_cmd_trace)
    trace_cmd.add_argument("app", help="a registered app name (see `blazes apps`)")
    trace_cmd.add_argument(
        "--strategy", default=None, help="deployment strategy (app default otherwise)"
    )
    trace_cmd.add_argument("--seed", type=int, default=0)
    trace_cmd.add_argument(
        "--smoke", action="store_true", help="CI-sized workload defaults"
    )
    trace_cmd.add_argument(
        "--id", dest="lineage", default=None, metavar="LINEAGE",
        help="print one lineage's causal timeline (e.g. batch:3, part:c0)",
    )
    trace_cmd.add_argument(
        "--limit", type=int, default=20, help="lineages (or events) to print"
    )
    trace_cmd.add_argument(
        "--json", action="store_true", help="machine-readable span events"
    )

    audit_cmd = sub.add_parser(
        "audit", help="fault-injection audit of the label analysis"
    )
    audit_cmd.set_defaults(func=_cmd_audit)
    audit_cmd.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads and seeds"
    )
    audit_cmd.add_argument(
        "--matrix",
        action="store_true",
        help="sweep the Figure 6 query matrix (q-* apps x uncoordinated/"
        "sealed/ordered) and check it against the paper's expectation",
    )
    audit_cmd.add_argument(
        "--apps",
        default=None,
        help="comma-separated subset of the registered audit apps",
    )
    audit_cmd.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="network seeds per campaign cell",
    )
    audit_cmd.add_argument(
        "--jobs", type=int, default=None,
        help="run campaign cells on the warm worker pool of this size "
        "(default: $BLAZES_JOBS or serial)",
    )
    audit_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every cell; do not read or write .blazes-cache/",
    )
    audit_cmd.add_argument(
        "--evidence", action="store_true", help="print oracle evidence lines"
    )
    audit_cmd.add_argument(
        "--json", action="store_true", help="machine-readable audit report"
    )
    audit_cmd.add_argument(
        "--no-report", action="store_true", help="skip writing BENCH_*.json"
    )
    audit_cmd.add_argument(
        "--schedules",
        default=None,
        help="comma-separated subset of each app's fault schedules",
    )
    audit_cmd.add_argument(
        "--backend",
        choices=("sim", "socket"),
        default=None,
        help="execution backend for every campaign cell (socket cells "
        "run on real TCP and bypass the cell cache)",
    )
    audit_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget per socket run; expiry exits with code 5",
    )
    audit_cmd.add_argument(
        "--search",
        action="store_true",
        help="generate composite fault schedules inside each app's "
        "envelope and shrink anomalous cells to minimal counterexamples",
    )
    audit_cmd.add_argument(
        "--candidates",
        type=int,
        default=4,
        help="composite schedules generated per app (--search)",
    )
    audit_cmd.add_argument(
        "--budget",
        type=int,
        default=64,
        help="shrink trials allowed per anomalous cell (--search)",
    )
    audit_cmd.add_argument(
        "--search-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the composite-schedule generator (--search)",
    )

    frontier_cmd = sub.add_parser(
        "frontier",
        help="bisect fault intensity to each guarantee's breaking point",
    )
    frontier_cmd.set_defaults(func=_cmd_frontier)
    frontier_cmd.add_argument(
        "--smoke", action="store_true", help="CI-sized workloads and seeds"
    )
    frontier_cmd.add_argument(
        "--apps",
        default=None,
        help="comma-separated subset of the registered audit apps",
    )
    frontier_cmd.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="network seeds per campaign cell",
    )
    frontier_cmd.add_argument(
        "--steps",
        type=int,
        default=5,
        help="bisection rounds after the two intensity endpoints",
    )
    frontier_cmd.add_argument(
        "--jobs", type=int, default=None,
        help="run frontier cells on the warm worker pool of this size "
        "(default: $BLAZES_JOBS or serial)",
    )
    frontier_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every cell; do not read or write .blazes-cache/",
    )
    frontier_cmd.add_argument(
        "--json", action="store_true", help="machine-readable frontier report"
    )
    frontier_cmd.add_argument(
        "--no-report",
        action="store_true",
        help="skip writing BENCH_frontier.json",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the evaluation engine's cell cache"
    )
    cache_cmd.set_defaults(func=_cmd_cache)
    cache_cmd.add_argument(
        "action", choices=("stats", "clear"), help="what to do with the cache"
    )
    cache_cmd.add_argument(
        "--json", action="store_true", help="machine-readable cache stats"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlazesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _resolve(target: str, strategy: str | None):
    """``(analysis, plan)`` for a registered app name or a YAML spec path.

    A registered app resolves its own plan: an ``ordered`` strategy
    imposes the sequencer rather than synthesizing a fallback.
    """
    from repro.api import app_names, get_app

    if target in app_names():
        app = get_app(target)
        return app.analyze(strategy), app.plan(strategy)
    if strategy is not None:
        raise BlazesError(
            f"--strategy applies to registered apps only; {target!r} is not "
            f"one of {list(app_names())}"
        )
    if not os.path.exists(target):
        raise BlazesError(
            f"{target!r} is neither a registered app ({list(app_names())}) "
            f"nor a spec file"
        )
    result = analyze(*load_spec(target))
    return result, choose_strategies(result)


def _cmd_apps(args) -> int:
    from repro.api import iter_apps

    apps = iter_apps()
    if args.json:
        print(json.dumps(
            [
                {
                    "name": app.name,
                    "backend": app.backend,
                    "description": app.description,
                    "strategies": list(app.strategies),
                    "default_strategy": app.default_strategy,
                    "auditable": app.auditable,
                }
                for app in apps
            ],
            indent=2,
        ))
        return 0
    width = max(len(app.name) for app in apps)
    for app in apps:
        strategies = ", ".join(
            f"{name}*" if name == app.default_strategy else name
            for name in app.strategies
        )
        print(f"{app.name:<{width}}  [{app.backend}]  {app.description}")
        print(f"{'':<{width}}  strategies: {strategies}")
    return 0


def _cmd_analyze(args) -> int:
    result, _plan = _resolve(args.target, args.strategy)
    if args.json:
        payload = report_to_dict(result, derivations=args.derivations)
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(result, derivations=False))
        if args.derivations:
            print()
            print(render_all(result))
    return 0 if result.is_consistent else 2


def _cmd_plan(args) -> int:
    _result, plan = _resolve(args.target, args.strategy)
    if args.json:
        print(json.dumps(plan_to_dict(plan), indent=2))
    else:
        print(plan.describe())
    return 0


def _cmd_lint(args) -> int:
    from repro.core.patterns import lint_dataflow

    findings = lint_dataflow(*_resolve(args.target, args.strategy))
    if not findings:
        print("no design-pattern findings")
        return 0
    for finding in findings:
        print(finding)
    return 3


_RESERVED_RUN_KEYS = {
    "seed": "--seed",
    "smoke": "--smoke",
    "strategy": "--strategy",
}


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise BlazesError(f"--set expects KEY=VALUE, got {pair!r}")
        key, text = pair.split("=", 1)
        if key in _RESERVED_RUN_KEYS:
            raise BlazesError(
                f"--set {key}=... collides with the dedicated "
                f"{_RESERVED_RUN_KEYS[key]} flag; use that instead"
            )
        try:
            overrides[key] = json.loads(text)
        except json.JSONDecodeError:
            overrides[key] = text
    return overrides


def _cmd_run(args) -> int:
    from repro.api import get_app
    from repro.net.services import SocketTimeout

    app = get_app(args.app)
    overrides = _parse_overrides(args.overrides)
    telemetry = None
    if args.profile or args.rundir:
        from repro.obs.telemetry import Telemetry
        from repro.sim.profile import SimProfiler

        telemetry = Telemetry(
            spans=bool(args.rundir),
            profiler=SimProfiler() if args.profile else None,
        )
    try:
        outcome = app.run(
            args.strategy,
            seed=args.seed,
            smoke=args.smoke,
            telemetry=telemetry,
            backend=args.backend,
            timeout=args.timeout,
            **overrides,
        )
    except SocketTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.rundir:
            from types import SimpleNamespace

            from repro.obs.rundir import write_rundir

            # archive what the torn-down run can still attest to: the
            # timed_out marker plus how far it got before the budget hit
            partial = SimpleNamespace(
                app=app.name,
                strategy=args.strategy or app.default_strategy,
                seed=args.seed,
                backend=app.backend,
                transport="socket",
                metrics={
                    "timed_out": True,
                    "timeout": exc.timeout,
                    "virtual_time": exc.virtual_time,
                    "events_fired": exc.fired,
                    "events_pending": exc.pending,
                },
                result=None,
                cluster=None,
            )
            path = write_rundir(
                args.rundir,
                partial,
                telemetry=telemetry,
                extra_meta={"timed_out": True},
            )
            print(f"wrote partial run directory {path}", file=sys.stderr)
        return 5
    except TypeError as exc:
        # an unknown --set key surfaces as an unexpected-keyword TypeError
        # deep in the runner; translate it into the CLI's clean error shape
        # only when the rejected keyword really came from a --set flag
        match = re.search(r"unexpected keyword argument '(\w+)'", str(exc))
        if match and match.group(1) in overrides:
            raise BlazesError(f"bad --set override: {exc}") from exc
        raise
    rundir_path = None
    if args.rundir:
        from repro.obs.rundir import write_rundir

        rundir_path = write_rundir(args.rundir, outcome, telemetry=telemetry)
    if args.json:
        payload = outcome.to_dict()
        print(json.dumps(payload, indent=2, default=repr))
    else:
        print(
            f"app={outcome.app} backend={outcome.backend} "
            f"strategy={outcome.strategy} seed={outcome.seed}"
        )
        width = max((len(name) for name in outcome.metrics), default=0)
        for name, value in outcome.metrics.items():
            if isinstance(value, dict):
                continue  # coordcost / profile blocks render below
            if isinstance(value, float):
                print(f"  {name:<{width}} : {value:,.4f}")
            else:
                print(f"  {name:<{width}} : {value}")
        if telemetry is not None:
            from repro.obs.coordcost import coordcost_report
            from repro.obs.render import coordcost_line, render_profile

            block = outcome.metrics.get("coordcost")
            if not isinstance(block, dict):
                block = coordcost_report(telemetry).to_dict()
            print(coordcost_line(block))
            if args.profile and "profile" in outcome.metrics:
                print(render_profile(outcome.metrics["profile"]))
    if rundir_path is not None:
        print(f"wrote run directory {rundir_path}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from repro.api import get_app
    from repro.obs.coordcost import coordcost_report
    from repro.obs.render import render_stats
    from repro.obs.telemetry import Telemetry

    if args.engine:
        from repro.exec import read_engine_stats
        from repro.obs.render import render_engine

        stats = read_engine_stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(render_engine(stats))
        return 0
    if args.app is None:
        raise BlazesError("blazes stats needs an app name (or --engine)")
    app = get_app(args.app)
    if args.strategy is not None:
        if args.strategy not in app.strategies:
            raise BlazesError(
                f"unknown strategy {args.strategy!r} for app {app.name!r}; "
                f"expected one of {list(app.strategies)}"
            )
        strategies = (args.strategy,)
    else:
        strategies = tuple(app.strategies)
    rows = []
    for strategy in strategies:
        hub = Telemetry()
        outcome = app.run(
            strategy, seed=args.seed, smoke=args.smoke, telemetry=hub
        )
        report = outcome.metrics.get("coordcost")
        if not isinstance(report, dict):
            report = coordcost_report(hub).to_dict()
        rows.append((strategy, report))
    if args.json:
        print(json.dumps(
            {
                "app": app.name,
                "seed": args.seed,
                "coordcost": {strategy: report for strategy, report in rows},
            },
            indent=2,
        ))
        return 0
    print(render_stats(app.name, rows))
    return 0


def _cmd_trace(args) -> int:
    from repro.api import get_app
    from repro.obs.render import render_lineages, render_timeline
    from repro.obs.telemetry import Telemetry

    app = get_app(args.app)
    hub = Telemetry(spans=True)
    app.run(args.strategy, seed=args.seed, smoke=args.smoke, telemetry=hub)
    spans = hub.spans
    assert spans is not None
    if args.json:
        rows = spans.to_rows()
        if args.lineage is not None:
            rows = [row for row in rows if row.get("lineage") == args.lineage]
        print(json.dumps(rows, indent=2))
        return 0
    if args.lineage is not None:
        print(render_timeline(spans, args.lineage, limit=args.limit))
    else:
        print(render_lineages(spans, limit=args.limit))
    return 0


def _cmd_audit(args) -> int:
    from repro.bench import JsonReporter
    from repro.chaos import (
        audit_campaign,
        campaign_is_sound,
        matrix_campaign,
        matrix_is_expected,
        render_audit,
        render_matrix,
    )
    from repro.core.report import audit_to_dict
    from repro.exec import CellCache, resolve_jobs
    from repro.obs.render import engine_line

    if args.matrix and args.apps:
        raise BlazesError("--matrix chooses its own apps; drop --apps")
    if args.matrix and args.backend == "socket":
        raise BlazesError("--matrix runs on the simulator; drop --backend")
    if args.search and args.matrix:
        raise BlazesError("--search and --matrix are separate sweeps")
    if args.search and args.backend == "socket":
        raise BlazesError(
            "--search needs deterministic, cacheable cells; it runs on "
            "the simulator only"
        )
    if args.search and args.schedules:
        raise BlazesError("--search generates its schedules; drop --schedules")
    apps = None
    if args.apps:
        apps = tuple(name for name in args.apps.split(",") if name)
    schedules = None
    if args.schedules:
        schedules = tuple(name for name in args.schedules.split(",") if name)
    reporter = None if args.no_report else JsonReporter()
    jobs = resolve_jobs(args.jobs)
    cache = None if args.no_cache else CellCache()
    if args.search:
        from repro.chaos.search import (
            render_search,
            search_campaign,
            search_is_sound,
        )

        payload = search_campaign(
            apps,
            smoke=args.smoke,
            seeds=args.seeds,
            candidates=args.candidates,
            budget=args.budget,
            seed=args.search_seed,
            jobs=jobs,
            cache=cache,
            reporter=reporter,
        )
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(render_search(payload))
            if reporter is not None:
                print(f"\nwrote {reporter.path_for(payload['search'])}")
        return 0 if search_is_sound(payload) else 4
    if args.matrix:
        report = matrix_campaign(
            smoke=args.smoke,
            seeds=args.seeds,
            reporter=reporter,
            jobs=jobs,
            cache=cache,
        )
        ok = campaign_is_sound(report) and matrix_is_expected(report)
    else:
        from repro.net.services import SocketTimeout

        try:
            report = audit_campaign(
                apps,
                smoke=args.smoke,
                seeds=args.seeds,
                reporter=reporter,
                jobs=jobs,
                cache=cache,
                schedules=schedules,
                backend=args.backend,
                timeout=args.timeout,
            )
        except SocketTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
        ok = campaign_is_sound(report)
    if args.json:
        payload = audit_to_dict(report)
        if args.matrix:
            payload["summary"]["matrix_expected"] = matrix_is_expected(report)
        if report.engine is not None:
            payload["engine"] = report.engine
        print(json.dumps(payload, indent=2))
    else:
        if args.matrix:
            print(render_matrix(report))
            print()
        print(render_audit(report, evidence=args.evidence))
        if report.engine is not None:
            print()
            print(engine_line(report.engine))
        if reporter is not None:
            print(f"\nwrote {reporter.path_for(report.name)}")
    return 0 if ok else 4


def _cmd_frontier(args) -> int:
    from repro.bench import JsonReporter
    from repro.chaos.search import frontier_campaign, render_frontier
    from repro.exec import CellCache, resolve_jobs
    from repro.obs.render import engine_line

    apps = None
    if args.apps:
        apps = tuple(name for name in args.apps.split(",") if name)
    reporter = None if args.no_report else JsonReporter()
    report = frontier_campaign(
        apps,
        smoke=args.smoke,
        seeds=args.seeds,
        steps=args.steps,
        jobs=resolve_jobs(args.jobs),
        cache=None if args.no_cache else CellCache(),
        reporter=reporter,
    )
    if args.json:
        payload = report.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(render_frontier(report))
        if report.engine is not None:
            print()
            print(engine_line(report.engine))
        if reporter is not None:
            print(f"\nwrote {reporter.path_for(report.name)}")
    return 0


def _cmd_cache(args) -> int:
    from repro.exec import CellCache, read_engine_stats

    cache = CellCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached cells from {cache.directory}")
        return 0
    stats = cache.stats()
    if args.json:
        payload = {**stats, "engine": read_engine_stats(cache.directory)}
        payload.pop("hits", None)
        payload.pop("misses", None)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache directory : {stats['directory']}")
    print(f"cached cells    : {stats['entries']:,}")
    print(f"size            : {stats['size_bytes']:,} bytes")
    totals = read_engine_stats(cache.directory).get("totals") or {}
    if totals:
        print(
            f"lifetime        : {totals.get('cache_hits', 0):,} hits, "
            f"{totals.get('cache_misses', 0):,} misses over "
            f"{totals.get('runs', 0):,} runs"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
