"""Unit tests for execution traces."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Trace


def make_trace():
    trace = Trace()
    trace.record(0.5, "a", "processed", 1)
    trace.record(1.5, "a", "processed", 2)
    trace.record(1.6, "b", "processed", 3)
    trace.record(2.5, "b", "sent", 4)
    return trace


def test_select_filters_by_event_and_source():
    trace = make_trace()
    assert len(trace.select(event="processed")) == 3
    assert len(trace.select(event="sent")) == 1
    assert len(trace.select(source="a")) == 2
    assert len(trace.select(event="processed", source="b")) == 1
    assert len([r for r in trace if r.data and r.data > 2]) == 2


def test_timeline_is_cumulative():
    trace = make_trace()
    series = trace.timeline("processed", bucket=1.0)
    assert series[0] == (1.0, 1)
    assert series[1] == (2.0, 3)
    assert series[-1][1] == 3


def test_timeline_empty_event():
    assert make_trace().timeline("nope") == []


@pytest.mark.parametrize("bucket", [0, -0.5, math.nan, math.inf])
def test_timeline_rejects_a_bucket_that_does_not_advance(bucket):
    trace = Trace()
    trace.record(0.5, "a", "processed")
    with pytest.raises(SimulationError, match="bucket must be > 0"):
        trace.timeline("processed", bucket=bucket)


@pytest.mark.parametrize("bucket", [10.0, 1e17])
def test_timeline_one_bucket_spanning_every_record_counts_them_all(bucket):
    # 4.79 + 1e17 == 1e17 in floating point: the series must still have
    # its one covering edge instead of no point at all
    trace = Trace()
    trace.record(0.5, "a", "processed", 3)
    trace.record(4.79, "a", "processed", 2)
    assert trace.timeline("processed", bucket=bucket, weighted=True) == [(bucket, 5)]


def test_timeline_ends_at_an_edge_covering_the_last_record():
    # the record lies just past the first edge, and 0.7 + 0.7 does not
    # exceed its time plus the bucket: a second edge must still cover it
    trace = Trace()
    trace.record(0.7000000000000001, "a", "processed")
    assert trace.timeline("processed", bucket=0.7) == [(0.7, 0), (1.4, 1)]


def test_total_weights_integer_data():
    trace = Trace()
    trace.record(0.1, "probe", "processed", 50)  # aggregated: 50 items
    trace.record(0.2, "probe", "processed", 30)
    trace.record(0.3, "probe", "processed", ("row",))  # non-int: weight 1
    trace.record(0.4, "probe", "processed")  # None: weight 1
    assert trace.total("processed") == 82
    assert len(trace.select(event="processed")) == 4
    # bools and floats are not aggregation weights
    trace.record(0.5, "probe", "other", True)
    trace.record(0.6, "probe", "other", 2.5)
    assert trace.total("other") == 2


def test_timeline_weighted_matches_per_item_series():
    aggregated, per_item = Trace(), Trace()
    aggregated.record(0.4, "p", "processed", 3)
    aggregated.record(1.2, "p", "processed", 2)
    for time in (0.4, 0.4, 0.4, 1.2, 1.2):
        per_item.record(time, "p", "processed", ("row",))
    assert (
        aggregated.timeline("processed", bucket=0.5, weighted=True)
        == per_item.timeline("processed", bucket=0.5)
        == [(0.5, 3), (1.0, 3), (1.5, 5)]
    )
    # unweighted, the aggregated rows count once each
    assert aggregated.timeline("processed", bucket=0.5) == [
        (0.5, 1),
        (1.0, 1),
        (1.5, 2),
    ]


def test_data_series_preserves_record_order():
    trace = Trace()
    payloads = [(0, "a"), (1, "b"), (2, "c")]
    for seq, value in payloads:
        trace.record(0.1 * (seq + 1), "zk", "zk.order:t", (seq, value))
    trace.record(0.05, "zk", "other", "ignored")
    assert trace.data_series("zk.order:t") == payloads
    assert trace.data_series("nope") == []

