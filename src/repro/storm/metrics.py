"""Throughput and latency metrics for topology runs."""

from __future__ import annotations

import dataclasses

from repro.storm.executor import StormCluster

__all__ = ["RunMetrics", "collect_metrics"]


@dataclasses.dataclass(frozen=True)
class RunMetrics:
    """Summary statistics of one cluster run.

    ``messages_sent`` counts every simulated network message (data frames,
    punctuations, acks, coordination traffic); ``frames_sent`` /
    ``items_sent`` cover the channel data path only, so
    ``items_sent / frames_sent`` is the achieved delivery batching factor.
    """

    duration: float
    batches_acked: int
    tuples_emitted: int
    replays: int
    mean_batch_latency: float
    messages_sent: int = 0
    messages_delivered: int = 0
    frames_sent: int = 0
    items_sent: int = 0

    @property
    def throughput(self) -> float:
        """Input tuples acknowledged per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.tuples_emitted / self.duration

    @property
    def batching_factor(self) -> float:
        """Items per channel frame actually achieved (0.0 when no frames)."""
        if self.frames_sent <= 0:
            return 0.0
        return self.items_sent / self.frames_sent


def collect_metrics(cluster: StormCluster, batch_size: int) -> RunMetrics:
    """Compute run metrics from a finished cluster."""
    acked = cluster.batches_acked
    duration = cluster.sim.now
    emitted_records = cluster.trace.select(event="batch_emitted")
    emit_times = {record.data: record.time for record in emitted_records}
    latencies = [
        time - emit_times[batch]
        for batch, time in acked
        if batch in emit_times
    ]
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    return RunMetrics(
        duration=duration,
        batches_acked=len(acked),
        tuples_emitted=len(acked) * batch_size,
        replays=cluster.total_replays,
        mean_batch_latency=mean_latency,
        messages_sent=cluster.network.sent,
        messages_delivered=cluster.network.delivered,
        frames_sent=cluster.total_frames_sent,
        items_sent=cluster.total_items_sent,
    )
