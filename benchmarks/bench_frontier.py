"""Severity frontiers: where, on the intensity axis, each guarantee breaks.

The fault audit asks a binary question per cell — did the observed
anomaly stay within the predicted label?  This benchmark asks the
quantitative one: per (app, strategy), *how much* fault intensity does
the deployment absorb before its guarantee degrades beyond ``Async``?
Each app's default fault schedules are composed into one envelope
schedule and its intensity (:meth:`FaultSchedule.with_intensity` — loss
and duplication probabilities, crash/partition windows, reorder jitter)
is bisected over [0, 1] through the warm-pool evaluation engine:

* **coordinated strategies hold**: the sealed/ordered deployments stay
  within ``Async`` at *full* envelope intensity — the synthesized
  coordination is not merely sound at the sampled library schedules, it
  holds across the intensity axis of the whole envelope;
* **uncoordinated anomalies have a frontier**: strategies the analysis
  labels beyond ``Async`` degrade at some measured intensity (for these
  apps at the floor — the anomaly needs no injected faults at all),
  mapping the empirical edge the labels warn about.

Run it as a script (``--jobs N`` and ``--no-cache`` are shared: ``benchmarks/README.md``)::

    PYTHONPATH=src python -m benchmarks.bench_frontier [--smoke]

which writes ``BENCH_frontier[-smoke].json`` (to ``$REPRO_BENCH_DIR`` or
the cwd), or with pytest for the assertions::

    PYTHONPATH=src python -m pytest benchmarks/bench_frontier.py -s
"""

from __future__ import annotations

import functools

from benchmarks._adreport import figure_main
from repro.bench import BenchReport, JsonReporter
from repro.chaos.search import frontier_campaign, render_frontier


@functools.cache
def run_frontier(
    tier: str = "default", *, steps: int = 5, jobs: int = 1, cache=None
) -> BenchReport:
    """The frontier sweep; writes ``BENCH_frontier[-smoke].json``.

    Memoized so the assertions below share one sweep per session.
    """
    return frontier_campaign(
        smoke=tier == "smoke",
        steps=steps,
        jobs=jobs,
        cache=cache,
        reporter=JsonReporter(),
    )


def test_frontier_covers_every_audit_pair():
    from repro.chaos import audit_apps, harness_for

    report = run_frontier("smoke", steps=3)
    print()
    print(render_frontier(report))
    expected = {
        f"{app}/{strategy}"
        for app in audit_apps()
        for strategy in harness_for(app, smoke=True).strategies
    }
    assert {r.name for r in report} == expected
    for result in report:
        assert result["probes"] >= 2, result.name  # both endpoints probed
        assert result["faults"] >= 2, result.name  # a real composite
        assert result["status_full"] != "unsound", result.name


def test_coordinated_strategies_hold_through_full_intensity():
    report = run_frontier("smoke", steps=3)
    for result in report:
        if result["coordinated"]:
            assert result["holds"], (result.name, result["observed_full"])
            assert result["frontier"] is None, result.name


def test_predicted_anomalies_have_a_measured_frontier():
    report = run_frontier("smoke", steps=3)
    degraded = [r for r in report if not r["holds"]]
    assert degraded, "no pair ever degraded: the frontier is vacuous"
    for result in degraded:
        # only strategies the analysis labels beyond Async may degrade,
        # and the frontier is a point on the intensity axis
        assert not result["coordinated"], result.name
        assert 0.0 <= result["frontier"] <= 1.0, result.name
    # the unsealed word count degrades (its Run anomaly is seed-borne,
    # so its frontier sits at the floor: no injected faults needed)
    eager = report.row("wordcount/eager")
    assert eager["frontier"] == 0.0


def main(argv: list[str] | None = None) -> None:
    figure_main(
        argv,
        run_frontier,
        lambda report, tier: print(render_frontier(report)),
        description="Severity frontiers: the fault intensity each guarantee absorbs",
        tiers=("smoke",),
    )


if __name__ == "__main__":
    main()
