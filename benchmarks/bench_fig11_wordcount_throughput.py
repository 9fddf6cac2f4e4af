"""Figure 11: Storm word-count throughput vs cluster size.

Sweeps the worker count over {5, 10, 15, 20} and runs the identical
workload as a transactional topology (batch commits serialized through
Zookeeper) and as the sealed topology Blazes certifies.  The paper's
shape: the sealed topology outperforms by ~1.8x at 5 workers, growing to
~3x at 20, because the serialized commit cycle cannot use the extra
workers.

A second sweep exercises the executor's scaling path: channel frame size
(tuples coalesced per simulated message) crossed with per-component
parallelism overrides.  Frames only fill when enough tuples share a
channel, so this sweep uses a larger spout batch than the throughput
sweep; the headline metric is ``messages_sent`` — frame size >= 16 must
cut simulated message events by >= 5x at identical committed output.

Run it as a script (``--jobs N`` and ``--no-cache`` are shared: ``benchmarks/README.md``)::

    PYTHONPATH=src python -m benchmarks.bench_fig11_wordcount_throughput [--smoke|--full]

which writes ``BENCH_fig11.json`` (to ``$REPRO_BENCH_DIR`` or the cwd),
or with pytest for the paper-shape assertions::

    PYTHONPATH=src python -m pytest benchmarks/bench_fig11_wordcount_throughput.py -s
"""

from __future__ import annotations

import functools

from benchmarks._adreport import figure_main, report_name
from repro.api import get_app
from repro.bench import BenchReport, JsonReporter, sweep
from repro.exec import bench_cache_fields, evaluate

CLUSTER_SIZES = (5, 10, 15, 20)
BATCHES_PER_SPOUT = 4
BATCH_SIZE = 30

BATCHING_WORKERS = 4
BATCHING_BATCHES = 8
BATCHING_BATCH_SIZE = 120
FRAME_SIZES = (1, 16, 64)
PARALLELISM_SCALES = (1, 2)

# Per-tier sweep parameters.  ``full`` is the paper-leaning 20-worker
# word count: the same cluster sweep driven with several times the
# offered load (an opt-in tier; see benchmarks/README.md).
TIER_PARAMS = {
    "smoke": {
        "cluster_sizes": (2, 4),
        "batches_per_spout": 2,
        "batch_size": 10,
        "batching_batch_size": 40,
        "frame_sizes": (1, 16),
        "parallelism_scales": (1, 2),
    },
    "default": {
        "cluster_sizes": CLUSTER_SIZES,
        "batches_per_spout": BATCHES_PER_SPOUT,
        "batch_size": BATCH_SIZE,
        "batching_batch_size": BATCHING_BATCH_SIZE,
        "frame_sizes": FRAME_SIZES,
        "parallelism_scales": PARALLELISM_SCALES,
    },
    "full": {
        "cluster_sizes": CLUSTER_SIZES,
        "batches_per_spout": 8,
        "batch_size": 100,
        "batching_batch_size": 240,
        "frame_sizes": FRAME_SIZES,
        "parallelism_scales": PARALLELISM_SCALES,
    },
}


def scenarios(tier: str = "default") -> list:
    params = TIER_PARAMS[tier]
    return sweep(
        "{mode}-w{workers}",
        {
            "kind": ("throughput",),
            "tier": (tier,),
            "workers": params["cluster_sizes"],
            "mode": ("sealed", "transactional"),
        },
    ) + sweep(
        "batching-f{frame_size}-x{scale}",
        {
            "kind": ("batching",),
            "tier": (tier,),
            "frame_size": params["frame_sizes"],
            "scale": params["parallelism_scales"],
        },
    )


def measure(*, kind: str, tier: str = "default", **params) -> dict:
    if kind == "throughput":
        return _measure_throughput(tier=tier, **params)
    return _measure_batching(tier=tier, **params)


def _measure_throughput(*, workers: int, mode: str, tier: str) -> dict:
    # offered load scales with the cluster, as a real stream would:
    # each spout task contributes the same number of batches.  ``mode``
    # names a registered strategy of the wordcount app: the registry is
    # the single wiring path shared with the CLI and the audit.
    per_spout = TIER_PARAMS[tier]["batches_per_spout"]
    batch_size = TIER_PARAMS[tier]["batch_size"]
    spouts = max(1, workers // 2)
    metrics = get_app("wordcount").run(
        mode,
        workers=workers,
        total_batches=per_spout * spouts,
        batch_size=batch_size,
    ).result
    return {
        "throughput": metrics.throughput,
        "batches_acked": metrics.batches_acked,
        "mean_batch_latency": metrics.mean_batch_latency,
        "messages_sent": metrics.messages_sent,
    }


def _measure_batching(*, frame_size: int, scale: int, tier: str) -> dict:
    batch_size = TIER_PARAMS[tier]["batching_batch_size"]
    metrics = get_app("wordcount").run(
        "sealed",
        workers=BATCHING_WORKERS,
        total_batches=BATCHING_BATCHES,
        batch_size=batch_size,
        frame_size=frame_size,
        parallelism={
            "Splitter": BATCHING_WORKERS * scale,
            "Count": BATCHING_WORKERS * scale,
        },
    ).result
    return {
        "throughput": metrics.throughput,
        "batches_acked": metrics.batches_acked,
        "messages_sent": metrics.messages_sent,
        "frames_sent": metrics.frames_sent,
        "items_sent": metrics.items_sent,
        "batching_factor": metrics.items_sent / max(1, metrics.frames_sent),
    }


@functools.cache
def run_fig11(tier: str = "default", *, jobs: int = 1, cache=None) -> BenchReport:
    """The figure sweep at one tier; writes ``BENCH_fig11*.json``.

    Smoke/full runs write ``BENCH_fig11-smoke.json`` /
    ``BENCH_fig11-full.json`` so they never clobber the default-tier
    record in the same directory.  Memoized so the assertions below
    share one sweep per session.
    """
    name = report_name("fig11", tier)
    return evaluate(
        name,
        scenarios(tier),
        measure,
        reporter=JsonReporter(),
        jobs=jobs,
        cache=cache,
        cache_fields=bench_cache_fields(name),
    )


def print_report(report: BenchReport) -> None:
    print()
    print("Figure 11 — throughput (tuples/s, simulated) vs cluster size")
    print(f"{'workers':>8} {'sealed':>12} {'transactional':>14} {'ratio':>7}")
    workers = sorted({r.params["workers"] for r in report.select(kind="throughput")})
    for count in workers:
        sealed = report.one(kind="throughput", workers=count, mode="sealed")
        txn = report.one(kind="throughput", workers=count, mode="transactional")
        ratio = sealed["throughput"] / txn["throughput"]
        print(
            f"{count:>8} {sealed['throughput']:>12,.0f} "
            f"{txn['throughput']:>14,.0f} {ratio:>6.2f}x"
        )
    print()
    print("Scaling path — frame size x parallelism (messages_sent)")
    batching = BenchReport(report.name, report.select(kind="batching"))
    print(batching.table("messages_sent", "batching_factor", "throughput"))


def test_fig11_throughput_vs_cluster_size():
    report = run_fig11()
    print_report(report)
    ratios = []
    sealed_tps = []
    for count in CLUSTER_SIZES:
        sealed = report.one(kind="throughput", workers=count, mode="sealed")
        txn = report.one(kind="throughput", workers=count, mode="transactional")
        ratios.append(sealed["throughput"] / txn["throughput"])
        sealed_tps.append(sealed["throughput"])
    # Paper shape: sealed always wins, and the gap grows with cluster size.
    for ratio in ratios:
        assert ratio > 1.3
    assert ratios[-1] > ratios[0], "gap should grow with cluster size"
    # Sealed throughput scales with workers; transactional plateaus.
    assert sealed_tps[-1] > sealed_tps[0] * 1.5


def test_fig11_batched_delivery_cuts_message_events():
    report = run_fig11()
    for scale in PARALLELISM_SCALES:
        unbatched = report.one(kind="batching", frame_size=1, scale=scale)
        batched = report.one(kind="batching", frame_size=16, scale=scale)
        # equal committed output...
        assert batched["batches_acked"] == unbatched["batches_acked"]
        assert batched["items_sent"] == unbatched["items_sent"]
        # ...with >= 5x fewer simulated message events
        reduction = unbatched["messages_sent"] / batched["messages_sent"]
        assert reduction >= 5.0, f"scale {scale}: only {reduction:.1f}x"


def main(argv: list[str] | None = None) -> None:
    figure_main(
        argv,
        run_fig11,
        lambda report, tier: print_report(report),
        description="Figure 11: Storm word-count throughput vs cluster size",
    )


if __name__ == "__main__":
    main()
