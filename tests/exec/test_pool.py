"""The warm worker pool: ordered merges, warm reuse, and accounting."""

from __future__ import annotations

import pytest

from repro.errors import ExecError
from repro.exec import PoolStats, WorkerPool, shared_pool, shutdown_shared_pool
from repro.exec.cache import read_engine_stats, record_engine_stats


@pytest.fixture(autouse=True)
def _isolated_shared_pool():
    """Never leak a shared pool (or its workers) across tests."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def square(*, x: int) -> dict:
    return {"square": x * x, "events": x}


def explode(*, x: int) -> dict:
    raise ValueError(f"cell {x} exploded")


def test_pool_runs_in_input_order():
    pool = WorkerPool(2)
    try:
        rows = pool.run(square, [{"x": x} for x in (3, 1, 4, 1, 5)])
    finally:
        pool.shutdown()
    assert [metrics["square"] for metrics, _, _ in rows] == [9, 1, 16, 1, 25]
    # every row carries its own wall/cpu timing
    assert all(wall >= 0.0 and cpu >= 0.0 for _, wall, cpu in rows)


def test_pool_workers_stay_warm_across_dispatches(tmp_path):
    pool = WorkerPool(2)
    try:
        for params in ([{"x": 1}, {"x": 2}], [{"x": 3}, {"x": 4}]):
            pool.run(square, params)
            record_engine_stats({"pool": pool.last.to_dict()}, tmp_path)
        assert pool.spawned == 1  # the second dispatch reused the workers
    finally:
        pool.shutdown()
    # the lifetime record is the sum of the dispatches in stats.json
    totals = read_engine_stats(tmp_path)["totals"]
    assert totals["runs"] == 2
    assert totals["pool_tasks"] == 4
    assert totals["events"] == 1 + 2 + 3 + 4


def test_pool_resize_respawns_with_new_worker_count():
    pool = WorkerPool(1)
    try:
        pool.run(square, [{"x": 1}])
        pool.resize(2)
        assert not pool.alive  # respawn deferred to the next dispatch
        rows = pool.run(square, [{"x": 2}, {"x": 3}])
        assert pool.spawned == 2
        assert pool.jobs == 2
        assert [m["square"] for m, _, _ in rows] == [4, 9]
    finally:
        pool.shutdown()


def test_pool_stats_count_tasks_events_and_utilization():
    pool = WorkerPool(2)
    try:
        pool.run(square, [{"x": x} for x in range(1, 9)])
    finally:
        pool.shutdown()
    stats = pool.last
    assert stats.tasks == 8
    assert stats.events == sum(range(1, 9))
    assert 1 <= stats.chunks <= 8
    assert 0.0 <= stats.utilization <= 1.0
    payload = stats.to_dict()
    assert payload["tasks"] == 8
    for worker in payload["workers"].values():
        assert worker["events_per_second"] >= 0.0


def test_pool_stats_totals_sum_the_worker_rows():
    stats = PoolStats(jobs=2)
    assert (stats.tasks, stats.busy_seconds, stats.events) == (0, 0.0, 0)
    stats.note_task(101, wall=0.5, cpu=0.4, events=10)
    stats.note_task(102, wall=0.25, cpu=0.2, events=5)
    stats.note_task(101, wall=0.75, cpu=0.1, events=None)
    assert stats.tasks == 3
    assert stats.events == 15
    assert stats.busy_seconds == pytest.approx(1.5)
    assert stats.cpu_seconds == pytest.approx(0.7)
    assert stats.workers[101] == {"tasks": 2, "busy_seconds": 1.25, "events": 10}
    payload = stats.to_dict()
    assert payload["tasks"] == 3 and payload["dispatches"] == 1


def test_pool_propagates_worker_exceptions():
    pool = WorkerPool(2)
    try:
        with pytest.raises(ValueError, match="exploded"):
            pool.run(explode, [{"x": 1}])
    finally:
        pool.shutdown()


def test_pool_rejects_bad_worker_counts():
    with pytest.raises(ExecError):
        WorkerPool(0)
    pool = WorkerPool(1)
    with pytest.raises(ExecError):
        pool.resize(0)


def test_shared_pool_is_one_pool_resized_on_demand():
    first = shared_pool(2)
    assert shared_pool(2) is first  # same jobs: the same warm pool
    resized = shared_pool(3)
    assert resized is first and resized.jobs == 3
    shutdown_shared_pool()
    assert shared_pool(2) is not first  # a shutdown pool is replaced


def test_pool_empty_dispatch_is_a_noop():
    pool = WorkerPool(2)
    assert pool.run(square, []) == []
    assert not pool.alive  # nothing to do: no workers were spawned
