"""Degenerate-input edges of the run-metrics surface.

Observability must never divide by zero: a cluster that acked nothing,
a zero-duration run, and a profiler that observed no wall-clock all have
well-defined (zero) rates.
"""

from __future__ import annotations

from repro.apps.wordcount import build_wordcount_topology
from repro.sim import SimProfiler
from repro.storm import ClusterConfig, StormCluster
from repro.storm.metrics import RunMetrics, collect_metrics


def test_collect_metrics_on_cluster_that_never_ran():
    topology = build_wordcount_topology(workers=2, total_batches=2, batch_size=10)
    cluster = StormCluster(topology, ClusterConfig())
    metrics = collect_metrics(cluster, batch_size=10)
    assert metrics.duration == 0.0
    assert metrics.batches_acked == 0
    assert metrics.tuples_emitted == 0
    assert metrics.mean_batch_latency == 0.0
    assert metrics.throughput == 0.0
    assert metrics.frames_sent == metrics.items_sent == 0


def test_zero_duration_rates_are_zero():
    metrics = RunMetrics(
        duration=0.0,
        batches_acked=5,
        tuples_emitted=50,
        replays=0,
        mean_batch_latency=0.0,
    )
    assert metrics.throughput == 0.0


def test_profiler_events_per_second_with_no_wall_clock():
    profiler = SimProfiler()
    assert profiler.wall_seconds == 0.0
    assert profiler.events_per_second == 0.0
    snapshot = profiler.snapshot()
    assert snapshot["events_per_second"] == 0.0
    assert snapshot["events"] == 0
