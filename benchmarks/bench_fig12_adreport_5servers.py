"""Figure 12: ad-reporting log records processed over time, 5 ad servers.

Four delivery regimes — uncoordinated (lower bound, inconsistent),
ordered (Zookeeper total order), independent seal (one producer per
campaign), and seal (all producers per campaign).  The paper's shape:
ordering is far slower; both seal variants closely track the
uncoordinated baseline.

Run it as a script (``--jobs N`` and ``--no-cache`` are shared: ``benchmarks/README.md``)::

    PYTHONPATH=src python -m benchmarks.bench_fig12_adreport_5servers [--smoke|--full]

which writes ``BENCH_fig12.json`` (to ``$REPRO_BENCH_DIR`` or the cwd);
``--full`` runs the paper's unabridged 1000-entries-per-server workload
and writes ``BENCH_fig12-full.json``.
"""

from __future__ import annotations

from benchmarks._adreport import figure_main, print_report_series, run_adreport_bench

SERVERS = 5
TITLE = "Figure 12 — processed log records over time, 5 ad servers"


def run_fig12(tier: str = "default", *, jobs: int = 1, cache=None):
    return run_adreport_bench("fig12", SERVERS, tier, jobs, cache)


def test_fig12_adreport_5_servers():
    report = run_fig12()
    print()
    print(TITLE)
    print_report_series(report, bucket=0.5)

    base = report.row("uncoordinated")["completion_time"]
    assert report.row("ordered")["completion_time"] > 2.0 * base
    assert report.row("seal")["completion_time"] < 1.5 * base
    assert report.row("independent-seal")["completion_time"] < 1.5 * base
    for result in report:
        assert result["processed"] == result["total_entries"]
    assert report.row("ordered")["replicas_agree"]
    assert report.row("seal")["replicas_agree"]


def _render(report, tier: str) -> None:
    print(f"{TITLE} [{tier}]")
    print_report_series(report, bucket=0.5)


def main(argv: list[str] | None = None) -> None:
    figure_main(argv, run_fig12, _render, description=TITLE)


if __name__ == "__main__":
    main()
