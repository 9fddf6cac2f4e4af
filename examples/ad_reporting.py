#!/usr/bin/env python3
"""The ad-tracking network under four coordination regimes (Section VIII-B).

Runs the Bloom ad-reporting system with the CAMPAIGN query and compares
processed-records-over-time across the paper's four strategies, printing
ASCII progress curves like Figures 12-14.

Run:  python examples/ad_reporting.py
"""

from repro.api import get_app
from repro.apps.ad_network import AdWorkload


def sparkline(series, total, width=48):
    if not series:
        return ""
    blocks = " .:-=+*#%@"
    line = []
    step = max(1, len(series) // width)
    for index in range(0, len(series), step):
        _, count = series[index]
        level = int((len(blocks) - 1) * count / total)
        line.append(blocks[level])
    return "".join(line)


def main() -> None:
    workload = AdWorkload(
        ad_servers=5,
        entries_per_server=300,
        batch_size=50,
        sleep=0.2,
        campaigns=10,
        requests=10,
    )
    print(f"workload: {workload.ad_servers} ad servers x "
          f"{workload.entries_per_server} log entries, "
          f"{workload.report_replicas} reporting replicas, CAMPAIGN query")
    print()
    print(f"  {'strategy':<18} {'completion':>11} {'replicas agree':>15}   progress")
    app = get_app("adnet")
    results = {}
    for strategy in app.strategies:
        result = app.run(strategy, seed=7, workload=workload).result
        results[strategy] = result
        series = result.processed_series(bucket=result.completion_time / 40 or 0.1)
        curve = sparkline(series, workload.total_entries)
        print(
            f"  {strategy:<18} {result.completion_time:>10.2f}s "
            f"{str(result.replicas_agree):>15}   |{curve}|"
        )
    print()
    ordered = results["ordered"].completion_time
    uncoordinated = results["uncoordinated"].completion_time
    print(f"ordering penalty: {ordered / uncoordinated:.1f}x slower than "
          f"uncoordinated; seal strategies track the uncoordinated baseline")


if __name__ == "__main__":
    main()
