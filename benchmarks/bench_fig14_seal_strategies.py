"""Figure 14: seal vs independent seal in detail, 10 ad servers.

With the ordered strategy omitted, the difference between the two seal
variants is visible: *independent seals* (each campaign mastered at one
ad server) release a partition on a single punctuation, giving smooth,
low-latency progress; *non-independent seals* (every server produces
every campaign) wait for a unanimous vote of all ten producers, giving
the step-like curve the paper shows — the "coordination locality" point
of Section X.
"""

from __future__ import annotations

import statistics

from benchmarks._adreport import print_series, run_strategies

STRATEGIES = ("uncoordinated", "independent-seal", "seal")


def release_times(result):
    node = result.report_nodes[0]
    records = result.cluster.trace.select(event=f"processed:{node}")
    return [r.time for r in records]


def test_fig14_seal_strategy_detail():
    workload, results = run_strategies(10, STRATEGIES)
    print()
    print("Figure 14 — seal-based strategies, 10 ad servers")
    print_series(results, workload, bucket=0.5)

    # Independent seals release earlier on average (lower latency)...
    independent = statistics.mean(release_times(results["independent-seal"]))
    grouped = statistics.mean(release_times(results["seal"]))
    print(f"mean release time: independent={independent:.2f}s grouped={grouped:.2f}s")
    assert independent < grouped

    # ...and grouped seals release in coarser bursts (step-like shape):
    # measure burstiness as the mean records released per distinct
    # release instant.
    def burstiness(result):
        times = release_times(result)
        distinct = len({round(t, 4) for t in times})
        return len(times) / max(1, distinct)

    independent_burst = burstiness(results["independent-seal"])
    grouped_burst = burstiness(results["seal"])
    print(f"records per release instant: independent={independent_burst:.1f} "
          f"grouped={grouped_burst:.1f}")
    assert grouped_burst > independent_burst
