"""The ``blazes`` command-line interface.

Every subcommand resolves applications through the :mod:`repro.api`
registry — the same catalog the benchmarks and the audit campaign use
(``blazes VERB --help`` lists a verb's flags; README.md walks through them):

``apps``
    List the registered applications, backends, and strategies.
``analyze TARGET`` / ``plan TARGET`` / ``lint TARGET``
    Run the label analysis on a registered app (or a YAML spec file, the
    legacy grey-box path) and print the report, only the synthesized
    coordination plan, or the Section X design-pattern findings.
``run APP``
    Execute a registered app under one coordination strategy.
    ``--profile`` attaches a :class:`~repro.sim.profile.SimProfiler`;
    ``--rundir DIR`` archives the run as a machine-readable directory
    (:mod:`repro.obs.rundir`); ``--backend socket`` runs it over real TCP.
``stats APP`` / ``trace APP``
    Run the app with telemetry attached and print the per-strategy
    coordination-cost breakdown, or — with causal span tracing — the
    busiest lineage ids or one lineage's timeline (``--id``).
``audit``
    The fault-injection campaign: every (app, strategy, fault schedule)
    cell runs for several seeds and the observed anomaly is checked
    against the predicted label; exits 4 on an unsound cell.  Cells fan
    out over the warm pool (``--jobs``, ``BLAZES_JOBS``) and are served
    from the content-addressed ``.blazes-cache/`` unless ``--no-cache``.
    ``--matrix`` sweeps the Figure 6 query apps and also checks the
    matrix against the paper's; ``--search`` instead generates composite
    schedules inside each app's envelope and delta-debugs every anomalous
    cell to a 1-minimal counterexample (:mod:`repro.chaos.search`).
``frontier``
    Per (app, strategy), bisect the intensity of the app's composed fault
    envelope to the smallest one whose observed anomaly exceeds ``Async``.
``cache stats|clear``
    Print the evaluation engine's cell cache and its cumulative ledger
    (``stats.json``: every run's block folded, their count, the last run), or
    empty both.

``--json`` prints the machine-readable form of whatever the verb prints,
so CI and the audit can diff predictions without scraping text.

This module parses and dispatches, nothing else: every flag is declared
once (:data:`_FLAGS`), the run verbs share :func:`_run_app`, the four
sweep verbs pick a :class:`~repro.chaos.campaign.Sweep` in
:func:`_cmd_sweep`, and what a verb prints is rendered beside what it
ran (:mod:`repro.core.report`, :mod:`repro.obs.render`, the sweeps).
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


# Every flag is declared here, once: its name and the ``add_argument``
# keywords all of its verbs share.  A verb lists the flags it takes, in
# ``--help`` order, and words a flag's help itself where wordings differ.
_FLAGS: dict[str, dict[str, Any]] = {
    "target": dict(help="a registered app name or a path to a Blazes YAML spec"),
    "app": dict(help="a registered app name (see `blazes apps`)"),
    "action": dict(choices=("stats", "clear"), help="what to do with the cache"),
    "--json": dict(action="store_true"),
    "--strategy": dict(default=None),
    "--derivations": dict(action="store_true", help="include derivation trees"),
    "--seed": dict(type=int, default=0),
    "--smoke": dict(action="store_true"),
    "--set": dict(
        dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="extra runner keyword (JSON value, e.g. --set workers=8)",
    ),
    "--profile": dict(
        action="store_true", help="attach the sim profiler and print its snapshot"
    ),
    "--rundir": dict(
        default=None, metavar="DIR",
        help="archive the run as a machine-readable run directory",
    ),
    "--backend": dict(choices=("sim", "socket"), default=None),
    "--timeout": dict(type=float, default=None, metavar="SECS"),
    "--id": dict(
        dest="lineage", default=None, metavar="LINEAGE",
        help="print one lineage's causal timeline (e.g. batch:3, part:c0)",
    ),
    "--limit": dict(type=int, default=20, help="lineages (or events) to print"),
    "--matrix": dict(
        action="store_true",
        help="sweep the Figure 6 query matrix (q-* apps x uncoordinated/"
        "sealed/ordered) and check it against the paper's expectation",
    ),
    "--apps": dict(
        default=None, help="comma-separated subset of the registered audit apps"
    ),
    "--seeds": dict(
        type=int, nargs="+", default=None, help="network seeds per campaign cell"
    ),
    "--jobs": dict(type=int, default=None),
    "--no-cache": dict(
        action="store_true",
        help="compute every cell; do not read or write .blazes-cache/",
    ),
    "--evidence": dict(action="store_true", help="print oracle evidence lines"),
    "--no-report": dict(action="store_true"),
    "--schedules": dict(
        default=None, help="comma-separated subset of each app's fault schedules"
    ),
    "--search": dict(
        action="store_true",
        help="generate composite fault schedules inside each app's "
        "envelope and shrink anomalous cells to minimal counterexamples",
    ),
    "--candidates": dict(
        type=int, default=4, help="composite schedules generated per app (--search)"
    ),
    "--budget": dict(
        type=int, default=64,
        help="shrink trials allowed per anomalous cell (--search)",
    ),
    "--search-seed": dict(
        type=int, default=0, metavar="N",
        help="seed of the composite-schedule generator (--search)",
    ),
    "--steps": dict(
        type=int, default=5,
        help="bisection rounds after the two intensity endpoints",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blazes",
        description="Blazes: coordination analysis for distributed programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, func, summary: str, *flags) -> None:
        """One subcommand.  Each of ``flags`` names a :data:`_FLAGS` entry, or
        pairs the name with this verb's own help line (or own keywords)."""
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        for flag in flags:
            flag, own = flag if isinstance(flag, tuple) else (flag, {})
            if isinstance(own, str):
                own = {"help": own}
            command.add_argument(flag, **{**_FLAGS[flag], **own})

    def jobs(cells: str):
        return "--jobs", (
            f"run {cells} cells on the warm worker pool of this size "
            "(default: $BLAZES_JOBS or serial)"
        )

    strategy = ("--strategy", "deployment strategy (app default otherwise)")
    smoke_run = ("--smoke", "CI-sized workload defaults")
    smoke_sweep = ("--smoke", "CI-sized workloads and seeds")
    verb(
        "apps", _cmd_apps, "list the registered applications",
        ("--json", "JSON output"),
    )
    verb(
        "analyze", _cmd_analyze, "analyze an app or spec file",
        "target", ("--strategy", "strategy variant (registered apps)"),
        "--derivations", ("--json", "machine-readable report"),
    )
    verb(
        "plan", _cmd_plan, "print the coordination plan",
        "target", "--strategy", ("--json", "machine-readable plan"),
    )
    verb(
        "lint", _cmd_lint, "check the Section X design patterns",
        "target", "--strategy",
    )
    verb(
        "run", _cmd_run, "execute a registered app",
        "app", strategy, "--seed", smoke_run,
        ("--json", "print the outcome as JSON"), "--set", "--profile", "--rundir",
        ("--backend", "execution backend: the discrete-event simulator "
         "(default) or real TCP transport"),
        ("--timeout", "wall-clock budget for a socket run; on expiry the "
         "services tear down cleanly and the exit code is 5"),
    )
    verb(
        "stats", _cmd_stats, "per-strategy coordination-cost breakdown",
        "app", ("--strategy", "one strategy only (all otherwise)"),
        "--seed", smoke_run,
        ("--json", "machine-readable coordcost blocks"),
    )
    verb(
        "trace", _cmd_trace, "causal span timelines for one run",
        "app", strategy, "--seed", smoke_run, "--id", "--limit",
        ("--json", "machine-readable span events"),
    )
    verb(
        "audit", _cmd_sweep, "fault-injection audit of the label analysis",
        smoke_sweep, "--matrix", "--apps", "--seeds", jobs("campaign"), "--no-cache",
        "--evidence", ("--json", "machine-readable audit report"),
        ("--no-report", "skip writing BENCH_*.json"), "--schedules",
        ("--backend", "execution backend for every campaign cell (socket "
         "cells run on real TCP and bypass the cell cache)"),
        ("--timeout", "wall-clock budget per socket run; expiry exits with code 5"),
        "--search", "--candidates", "--budget", "--search-seed",
    )
    verb(
        "frontier", _cmd_sweep,
        "bisect fault intensity to each guarantee's breaking point",
        smoke_sweep, "--apps", "--seeds", "--steps", jobs("frontier"), "--no-cache",
        ("--json", "machine-readable frontier report"),
        ("--no-report", "skip writing BENCH_frontier.json"),
    )
    verb(
        "cache", _cmd_cache, "inspect or clear the evaluation engine's cell cache",
        "action", ("--json", "machine-readable cache stats"),
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
        print(render_report(result))
        if args.derivations:
            print(f"\n{render_all(result)}")
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


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise BlazesError(f"--set expects KEY=VALUE, got {pair!r}")
        key, text = pair.split("=", 1)
        if key in ("seed", "smoke", "strategy"):
            raise BlazesError(
                f"--set {key}=... collides with the dedicated "
                f"--{key} flag; use that instead"
            )
        try:
            overrides[key] = json.loads(text)
        except json.JSONDecodeError:
            overrides[key] = text
    return overrides


def _run_app(args, strategy, hub, **runner):
    """One run of ``args.app`` under the telemetry ``hub`` — what ``run``,
    ``stats`` and ``trace`` share.  With a hub, the outcome carries it
    (``outcome.telemetry``) and its ``coordcost`` metrics block."""
    from repro.api import get_app

    return get_app(args.app).run(
        strategy, seed=args.seed, smoke=args.smoke, telemetry=hub, **runner
    )


def _cmd_run(args) -> int:
    from repro.net.services import SocketTimeout
    from repro.obs.render import render_outcome
    from repro.obs.rundir import write_rundir

    overrides = _parse_overrides(args.overrides)
    hub = None
    if args.profile or args.rundir:
        from repro.obs.telemetry import Telemetry
        from repro.sim.profile import SimProfiler

        hub = Telemetry(
            spans=bool(args.rundir), profiler=SimProfiler() if args.profile else None
        )
    try:
        outcome = _run_app(
            args, args.strategy, hub,
            backend=args.backend, timeout=args.timeout, **overrides,
        )
    except SocketTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.rundir:
            path = write_rundir(args.rundir, exc)
            print(f"wrote partial run directory {path}", file=sys.stderr)
        return 5
    except TypeError as exc:
        # an unknown --set key surfaces as an unexpected-keyword TypeError
        # deep in the runner; translate it into the CLI's clean error shape
        # only when the rejected keyword really came from a --set flag
        match = re.search(r"unexpected keyword argument '([^']+)'", str(exc))
        if match and match.group(1) in overrides:
            raise BlazesError(f"bad --set override: {exc}") from exc
        raise
    rundir = write_rundir(args.rundir, outcome) if args.rundir else None
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, default=repr))
    else:
        print(render_outcome(outcome))
    if rundir is not None:
        print(f"wrote run directory {rundir}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from repro.api import get_app
    from repro.obs.render import render_stats
    from repro.obs.telemetry import Telemetry

    app = get_app(args.app)
    if args.strategy is None:
        strategies = tuple(app.strategies)
    elif args.strategy in app.strategies:
        strategies = (args.strategy,)
    else:
        raise BlazesError(
            f"unknown strategy {args.strategy!r} for app {app.name!r}; "
            f"expected one of {list(app.strategies)}"
        )
    rows = [
        (strategy, _run_app(args, strategy, Telemetry()).metrics["coordcost"])
        for strategy in strategies
    ]
    if args.json:
        payload = {"app": app.name, "seed": args.seed, "coordcost": dict(rows)}
        print(json.dumps(payload, indent=2))
    else:
        print(render_stats(app.name, rows))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.render import render_lineages, render_timeline
    from repro.obs.telemetry import Telemetry

    if args.limit < 1:
        raise BlazesError(f"--limit must be >= 1, got {args.limit}")
    spans = _run_app(args, args.strategy, Telemetry(spans=True)).telemetry.spans
    if args.json:
        rows = spans.to_rows()
        if args.lineage is not None:
            rows = [row for row in rows if row.get("lineage") == args.lineage]
        print(json.dumps(rows, indent=2))
    elif args.lineage is not None:
        print(render_timeline(spans, args.lineage, limit=args.limit))
    else:
        print(render_lineages(spans, limit=args.limit))
    return 0


def _names(text: str | None) -> tuple[str, ...] | None:
    """A comma-separated flag value as a tuple; ``None`` when not given."""
    return tuple(name for name in text.split(",") if name) if text else None


# The audit flags each sweep reads, beyond those every sweep reads (--smoke,
# --seeds, --jobs, --no-cache, --json, --no-report): --matrix chooses its own
# apps, --search generates its schedules, and both run on the simulator.
_SWEEP_READS = {
    "audit": ("--apps", "--schedules", "--backend", "--timeout", "--evidence"),
    "audit --matrix": ("--matrix", "--schedules", "--evidence"),
    "audit --search": ("--search", "--apps", "--candidates", "--budget", "--search-seed"),
}


def _reject_unread_flags(args) -> None:
    """A flag the chosen sweep does not read, given a value other than its
    default, is an error rather than silently ignored."""
    if args.command == "frontier":
        return  # its parser declares only the flags it reads
    sweep = "audit --search" if args.search else "audit --matrix" if args.matrix else "audit"
    flags = {flag for read in _SWEEP_READS.values() for flag in read}
    for flag in sorted(flags - set(_SWEEP_READS[sweep])):
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag == "--backend" and value == "sim":
            continue  # names the simulator, which every sweep runs on
        if value != _FLAGS[flag].get("default", False):
            raise BlazesError(f"{sweep} does not read {flag}; drop it")


def _cmd_sweep(args) -> int:
    """``audit``, ``audit --matrix``, ``audit --search`` and ``frontier``: build
    the sweep the flags select, run it, print what it showed, exit on its
    verdict."""
    from repro.bench import JsonReporter
    from repro.chaos.campaign import AuditSweep, MatrixSweep
    from repro.chaos.search import FrontierSweep, SearchSweep
    from repro.exec import CellCache, resolve_jobs
    from repro.net.services import SocketTimeout

    _reject_unread_flags(args)
    common = dict(apps=_names(args.apps), smoke=args.smoke, seeds=args.seeds)
    if args.command == "frontier":
        sweep = FrontierSweep(steps=args.steps, **common)
    elif args.search:
        sweep = SearchSweep(
            candidates=args.candidates, budget=args.budget, seed=args.search_seed,
            **common,
        )
    elif args.matrix:
        sweep = MatrixSweep(
            schedules=_names(args.schedules), evidence=args.evidence, **common
        )
    else:
        sweep = AuditSweep(
            schedules=_names(args.schedules), backend=args.backend,
            timeout=args.timeout, evidence=args.evidence, **common,
        )
    reporter = None if args.no_report else JsonReporter()
    try:
        cache = None if args.no_cache else CellCache()
        value = sweep.run(jobs=resolve_jobs(args.jobs), cache=cache, reporter=reporter)
    except SocketTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.json:
        print(json.dumps(sweep.payload(value), indent=2))
    else:
        print(sweep.render(value))
        if reporter is not None:
            print(f"\nwrote {reporter.path_for(sweep.name)}")
    return 0 if sweep.sound(value) else 4


def _cmd_cache(args) -> int:
    from repro.exec import CellCache, read_engine_stats
    from repro.obs.render import render_engine

    cache = CellCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached cells from {cache.directory}")
        return 0
    stats = cache.stats()
    engine = read_engine_stats(cache.directory)
    if args.json:
        print(json.dumps({**stats, "engine": engine}, indent=2, sort_keys=True))
        return 0
    print(f"cache directory : {stats['directory']}")
    print(f"cached cells    : {stats['entries']:,}")
    print(f"size            : {stats['size_bytes']:,} bytes")
    print(render_engine(engine))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
