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

from benchmarks._adreport import print_series, run_strategies

STRATEGIES = ("uncoordinated", "independent-seal", "seal")


def releases(result):
    """``(time, records released)`` per tick of the first replica: the
    processed-probe writes one trace record per tick, weighted by how many
    click records became visible in it."""
    node = result.report_nodes[0]
    records = result.cluster.trace.select(event=f"processed:{node}")
    return [(r.time, r.data) for r in records]


def mean_release_time(result):
    released = releases(result)
    return sum(t * n for t, n in released) / sum(n for _t, n in released)


def test_fig14_seal_strategy_detail():
    workload, results = run_strategies(10, STRATEGIES)
    print()
    print("Figure 14 — seal-based strategies, 10 ad servers")
    print_series(results, workload, bucket=0.5)

    # Independent seals release earlier on average (lower latency)...
    independent = mean_release_time(results["independent-seal"])
    grouped = mean_release_time(results["seal"])
    print(f"mean release time: independent={independent:.2f}s grouped={grouped:.2f}s")
    assert independent < grouped

    # ...and grouped seals release in coarser bursts (step-like shape):
    # measure burstiness as the mean records released per distinct
    # release instant.
    def burstiness(result):
        released = releases(result)
        distinct = len({round(t, 4) for t, _n in released})
        return sum(n for _t, n in released) / max(1, distinct)

    independent_burst = burstiness(results["independent-seal"])
    grouped_burst = burstiness(results["seal"])
    print(f"records per release instant: independent={independent_burst:.1f} "
          f"grouped={grouped_burst:.1f}")
    assert grouped_burst > independent_burst
