"""Figure 13: ad-reporting log records processed over time, 10 ad servers.

Doubling the ad servers barely affects the uncoordinated and seal-based
runs (they scale out), but inflates the ordered run's completion time
substantially — the sequencer's serialized quorum writes are the
bottleneck, and doubling offered load compounds queueing delay
(the paper reports a ~3x increase).

Run it as a script (``--jobs N`` and ``--no-cache`` are shared: ``benchmarks/README.md``)::

    PYTHONPATH=src python -m benchmarks.bench_fig13_adreport_10servers [--smoke|--full]

which writes ``BENCH_fig13.json`` (to ``$REPRO_BENCH_DIR`` or the cwd);
``--full`` is the paper's unabridged 1000-entries-per-server scale.
"""

from __future__ import annotations

from benchmarks._adreport import figure_main, print_report_series, run_adreport_bench
from benchmarks.bench_fig12_adreport_5servers import run_fig12

SERVERS = 10
TITLE = "Figure 13 — processed log records over time, 10 ad servers"


def run_fig13(tier: str = "default", *, jobs: int = 1, cache=None):
    return run_adreport_bench("fig13", SERVERS, tier, jobs, cache)


def test_fig13_adreport_10_servers():
    report = run_fig13()
    print()
    print(TITLE)
    print_report_series(report, bucket=1.0)

    base = report.row("uncoordinated")["completion_time"]
    assert report.row("ordered")["completion_time"] > 3.0 * base
    assert report.row("seal")["completion_time"] < 1.5 * base
    for result in report:
        assert result["processed"] == result["total_entries"]


def test_fig13_scaling_vs_fig12():
    """The scaling comparison the paper calls out explicitly.

    Both sweeps are memoized per session, so the 10-server points are
    shared with :func:`test_fig13_adreport_10_servers` and the 5-server
    points with the fig12 assertions when both files run together.
    """
    five, ten = run_fig12(), run_fig13()

    def growth(strategy: str) -> float:
        return (
            ten.row(strategy)["completion_time"]
            / five.row(strategy)["completion_time"]
        )

    unc_growth, ord_growth = growth("uncoordinated"), growth("ordered")
    print()
    print("Scaling 5 -> 10 ad servers (completion-time growth)")
    print(f"  uncoordinated: {unc_growth:.2f}x   (paper: little effect)")
    print(f"  ordered      : {ord_growth:.2f}x   (paper: ~3x)")
    assert unc_growth < 1.5
    assert ord_growth > 1.6


def _render(report, tier: str) -> None:
    print(f"{TITLE} [{tier}]")
    print_report_series(report, bucket=1.0)


def main(argv: list[str] | None = None) -> None:
    figure_main(argv, run_fig13, _render, description=TITLE)


if __name__ == "__main__":
    main()
