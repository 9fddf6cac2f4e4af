#!/usr/bin/env python3
"""Run the Storm word-count topology both ways and compare (Section VIII-A).

Executes the same workload as a conservative *transactional topology*
(batch commits totally ordered through Zookeeper) and as the
Blazes-certified *sealed* topology (no global coordination), then verifies
the committed stores are identical and reports the throughput gap.

Run:  python examples/storm_wordcount.py
"""

from repro.api import get_app


def main() -> None:
    app = get_app("wordcount")
    print("Blazes verdict for the sealed topology:")
    result = app.analyze("sealed")
    plan = app.plan("sealed")
    print(f"  sink label = {result.label_of('Commit->sink')}")
    print(f"  strategy   = {plan.strategy_for('Count').describe()}")
    print()

    workers, batches, batch_size = 5, 15, 40
    print(f"Running both deployments: {workers} workers, "
          f"{batches} batches x {batch_size} tweets")

    run_kwargs = dict(workers=workers, total_batches=batches, batch_size=batch_size)
    sealed_outcome = app.run("sealed", **run_kwargs)
    txn_outcome = app.run("transactional", **run_kwargs)
    sealed, sealed_cluster = sealed_outcome.result, sealed_outcome.cluster
    txn, txn_cluster = txn_outcome.result, txn_outcome.cluster

    committed = sealed_cluster.committed_store()
    assert committed == txn_cluster.committed_store(), (
        "both deployments must commit identical counts"
    )
    print(f"  committed (word, batch) pairs: {len(committed)}"
          f" — identical in both deployments")
    print()
    print(f"  {'deployment':<16} {'sim time':>10} {'throughput':>14} {'latency':>10}")
    for label, metrics in (("sealed", sealed), ("transactional", txn)):
        print(
            f"  {label:<16} {metrics.duration:>9.3f}s "
            f"{metrics.throughput:>11,.0f} t/s "
            f"{metrics.mean_batch_latency * 1000:>8.2f}ms"
        )
    print()
    speedup = sealed.throughput / txn.throughput
    print(f"  sealed topology speedup: {speedup:.2f}x "
          f"(paper Figure 11: 1.8x at 5 workers, 3x at 20)")


if __name__ == "__main__":
    main()
