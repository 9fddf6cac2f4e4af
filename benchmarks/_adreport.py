"""Shared harness of the figure scripts: the command-line entry every
``bench_*.py`` uses, and the Figures 12-14 ad-reporting experiments.

Figures 12 and 13 run through :func:`repro.exec.evaluate` (scenario
sweep over delivery strategies, one ``BENCH_fig12/13.json`` each);
Figure 14 uses the raw :func:`run_strategies` helper because it inspects
per-record release times rather than summary metrics.

Workloads come in three *tiers*: ``smoke`` (CI-sized), ``default`` (the
shape of the paper's experiment, trimmed for quick regeneration), and
``full`` (the paper's actual Section VIII-B scale — 1000 log entries per
server, 50 at a time — which the semi-naive Bloom engine made feasible;
reports are written as ``BENCH_fig12-full.json`` etc. so tiers never
clobber each other).
"""

from __future__ import annotations

import argparse
import functools
from collections.abc import Callable, Sequence

from repro.api import get_app
from repro.apps.ad_network import AdWorkload
from repro.bench import BenchReport, JsonReporter, Scenario
from repro.exec import CellCache, bench_cache_fields, evaluate, resolve_jobs

SERIES_BUCKET = 0.25
STRATEGIES = ("uncoordinated", "ordered", "independent-seal", "seal")
SEED = 7


def workload_for(servers: int) -> AdWorkload:
    """The Section VIII-B workload, scaled for simulator runtime.

    The paper uses 1000 log entries per server dispatched 50 at a time;
    we keep the batch structure and trim the entry count so each figure
    regenerates in seconds of wall-clock time.
    """
    return AdWorkload(
        ad_servers=servers,
        entries_per_server=400,
        batch_size=50,
        sleep=0.25,
        campaigns=20,
        requests=10,
        report_replicas=3,
    )


def smoke_workload_for(servers: int) -> AdWorkload:
    """A CI-sized variant: same structure, a fraction of the records.

    Campaigns scale with the cluster so the independent-seal placement
    (campaign ``c`` mastered at server ``c % servers``) leaves no server
    without a campaign to produce.
    """
    return AdWorkload(
        ad_servers=servers,
        entries_per_server=80,
        batch_size=20,
        sleep=0.1,
        campaigns=max(8, servers),
        requests=4,
        report_replicas=2,
    )


def full_workload_for(servers: int) -> AdWorkload:
    """The unabridged paper workload (Section VIII-B): 1000 entries/server."""
    return AdWorkload(
        ad_servers=servers,
        entries_per_server=1000,
        batch_size=50,
        sleep=0.25,
        campaigns=20,
        requests=12,
        report_replicas=3,
    )


TIERS = {
    "smoke": smoke_workload_for,
    "default": workload_for,
    "full": full_workload_for,
}


def report_name(figure: str, tier: str) -> str:
    """``fig12`` / ``fig12-smoke`` / ``fig12-full``."""
    return figure if tier == "default" else f"{figure}-{tier}"


def figure_main(
    argv: Sequence[str] | None,
    run: Callable[..., BenchReport],
    render: Callable[[BenchReport, str], None],
    *,
    description: str,
    tiers: Sequence[str] = ("smoke", "full"),
) -> BenchReport:
    """The command line of every figure script::

        python -m benchmarks.bench_figNN [--smoke|--full] [--jobs N] [--no-cache]

    ``run(tier, jobs=..., cache=...)`` produces the report (``--jobs``
    defaults to ``$BLAZES_JOBS``, else serial; the cell cache is on
    unless ``--no-cache``) and ``render(report, tier)`` prints the
    figure.  ``tiers`` are the non-default tiers the script has; any
    other flag — a ``--smok`` typo included, hence no abbreviations — is
    a usage error (exit 2), never a silent default-tier run.
    """
    parser = argparse.ArgumentParser(description=description, allow_abbrev=False)
    tier = parser.add_mutually_exclusive_group()
    for name in tiers:
        tier.add_argument(
            f"--{name}", dest="tier", action="store_const", const=name,
            help=f"run the {name} tier (writes BENCH_<figure>-{name}.json)",
        )
    parser.set_defaults(tier="default")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: $BLAZES_JOBS, else serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="compute every cell instead of reading .blazes-cache/",
    )
    args = parser.parse_args(argv)
    report = run(
        args.tier,
        jobs=resolve_jobs(args.jobs),
        cache=None if args.no_cache else CellCache(),
    )
    render(report, args.tier)
    print()
    print(f"wrote {JsonReporter().path_for(report.name)}")
    return report


def run_strategies(servers: int, strategies, seed: int = SEED):
    workload = workload_for(servers)
    results = {}
    for strategy in strategies:
        results[strategy] = get_app("adnet").run(
            strategy, workload=workload, seed=seed, workload_seed=seed
        ).result
    return workload, results


# ----------------------------------------------------------------------
# Figures 12 and 13: one strategy sweep per cluster size
# ----------------------------------------------------------------------
def _measure_cell(*, servers: int, strategy: str, tier: str) -> dict:
    """One (cluster size, strategy) point as a JSON-able metric mapping;
    module-level so the worker pool can pickle it."""
    from repro.obs.telemetry import Telemetry

    # telemetry attached so every fig12/fig13 point embeds its coordcost
    # block — the measured price of the strategy next to its latency
    outcome = get_app("adnet").run(
        strategy, workload=TIERS[tier](servers), seed=SEED, workload_seed=SEED,
        telemetry=Telemetry(),
    )
    return {
        **outcome.metrics,
        "series": outcome.result.processed_series(bucket=SERIES_BUCKET),
    }


@functools.cache
def run_adreport_bench(
    figure: str, servers: int, tier: str = "default", jobs: int = 1, cache=None
) -> BenchReport:
    """Sweep the delivery strategies at one cluster size; write the JSON.

    Memoized on the full positional key, so the figure's assertions and
    the fig13-vs-fig12 scaling comparison share one sweep per session.
    ``jobs > 1`` runs the cells on the warm worker pool; ``cache`` serves
    previously computed cells by content address (bench name + params).
    """
    name = report_name(figure, tier)
    scenarios = [
        Scenario(strategy, {"servers": servers, "strategy": strategy, "tier": tier})
        for strategy in STRATEGIES
    ]
    return evaluate(
        name,
        scenarios,
        _measure_cell,
        reporter=JsonReporter(),
        jobs=jobs,
        cache=cache,
        cache_fields=bench_cache_fields(name),
    )


def _print_bucket_table(
    series: dict[str, list[tuple[float, int]]],
    footer: dict[str, tuple[float, bool]],
    *,
    bucket: float,
) -> None:
    """The Figures 12-14 renderer: cumulative counts per bucket edge.

    ``series`` maps strategy to sorted ``(time, cumulative_count)``
    points; ``footer`` maps strategy to ``(completion_time,
    replicas_agree)``.  Values carry forward between points.
    """
    strategies = list(series)
    horizon = max(
        (points[-1][0] for points in series.values() if points),
        default=0.0,
    )
    print(f"{'time(s)':>8} " + " ".join(f"{s:>18}" for s in strategies))
    cursor = {strategy: 0 for strategy in strategies}
    counts = {strategy: 0 for strategy in strategies}
    edge = bucket
    while edge <= horizon + bucket:
        row = [f"{edge:>8.2f}"]
        for strategy in strategies:
            # advance to this bucket edge, carrying the last value
            points = series[strategy]
            index = cursor[strategy]
            while index < len(points) and points[index][0] <= edge + 1e-9:
                counts[strategy] = points[index][1]
                index += 1
            cursor[strategy] = index
            row.append(f"{counts[strategy]:>18d}")
        print(" ".join(row))
        edge += bucket
    print()
    print(f"{'strategy':<20} {'completion(s)':>14} {'replicas agree':>15}")
    for strategy in strategies:
        completion, agree = footer[strategy]
        print(f"{strategy:<20} {completion:>14.2f} {str(agree):>15}")


def print_report_series(report: BenchReport, *, bucket: float) -> None:
    """Print the Figures 12-13 data from a report's stored series."""
    _print_bucket_table(
        {
            result.name: sorted(tuple(point) for point in result["series"])
            for result in report
        },
        {
            result.name: (result["completion_time"], result["replicas_agree"])
            for result in report
        },
        bucket=bucket,
    )


def print_series(results, workload, *, bucket: float) -> None:
    """Print the Figures 12-14 data from raw :func:`run_strategies` results."""
    _print_bucket_table(
        {s: sorted(results[s].processed_series(bucket=bucket)) for s in results},
        {s: (results[s].completion_time, results[s].replicas_agree) for s in results},
        bucket=bucket,
    )
