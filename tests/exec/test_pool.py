"""The warm worker pool: ordered merges, warm reuse, accounting, and a
worker that dies."""

from __future__ import annotations

import os

import pytest

from repro.errors import ExecError
from repro.exec import WorkerPool, shared_pool, shutdown_shared_pool
from repro.exec.pool import _block, _fold_dispatches, _run_chunk


@pytest.fixture(autouse=True)
def _isolated_shared_pool():
    """Never leak a shared pool (or its workers) across tests."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def square(*, x: int) -> dict:
    return {"square": x * x, "events": x}


def no_events(*, x: int) -> dict:
    return {"square": x * x}


def explode(*, x: int) -> dict:
    raise ValueError(f"cell {x} exploded")


def die(*, x: int) -> dict:
    os._exit(3)


def test_pool_runs_in_input_order():
    pool = WorkerPool(2)
    try:
        rows, _ = pool.run(square, [{"x": x} for x in (3, 1, 4, 1, 5)])
    finally:
        pool.shutdown()
    assert [metrics["square"] for metrics, _, _ in rows] == [9, 1, 16, 1, 25]
    # every row carries its own wall/cpu timing
    assert all(wall >= 0.0 and cpu >= 0.0 for _, wall, cpu in rows)


def _events(block) -> int:
    return sum(worker["events"] for worker in block["workers"].values())


def test_pool_workers_stay_warm_across_dispatches():
    pool = WorkerPool(2)
    blocks = []
    try:
        for params in ([{"x": 1}, {"x": 2}], [{"x": 3}, {"x": 4}]):
            _rows, block = pool.run(square, params)
            blocks.append(block)
        assert pool.spawned == 1  # the second dispatch reused the workers
    finally:
        pool.shutdown()
    # what the pool did over both is the fold of the dispatches
    folded = _fold_dispatches(blocks)
    assert (folded["tasks"], folded["dispatches"]) == (4, 2)
    assert _events(folded) == 1 + 2 + 3 + 4


def test_pool_resize_respawns_with_new_worker_count():
    pool = WorkerPool(1)
    try:
        pool.run(square, [{"x": 1}])
        pool.resize(2)
        assert pool._executor is None  # respawn deferred to the next dispatch
        rows, _ = pool.run(square, [{"x": 2}, {"x": 3}])
        assert pool.spawned == 2
        assert pool.jobs == 2
        assert [m["square"] for m, _, _ in rows] == [4, 9]
    finally:
        pool.shutdown()


def test_pool_block_counts_tasks_events_and_utilization():
    pool = WorkerPool(2)
    try:
        _rows, block = pool.run(square, [{"x": x} for x in range(1, 9)])
    finally:
        pool.shutdown()
    assert block["tasks"] == 8
    assert "events" not in block  # the engine block totals them, once
    assert _events(block) == sum(range(1, 9))
    assert 1 <= block["chunks"] <= 8
    assert 0.0 <= block["utilization"] <= 1.0
    for worker in block["workers"].values():
        assert worker["events_per_second"] >= 0.0


def test_pool_block_totals_sum_the_worker_rows():
    empty = _block(2, 0, 0.0, [])
    assert (empty["tasks"], empty["busy_seconds"], empty["workers"], empty["utilization"]) == (0, 0.0, {}, 0.0)
    # _run_chunk rows: (index, metrics, wall, cpu, pid, events)
    rows = [(0, {}, 0.5, 0.4, 101, 10), (1, {}, 0.25, 0.2, 102, 5), (2, {}, 0.75, 0.1, 101, 0)]
    block = _block(2, 2, 1.0, rows)
    assert block["tasks"] == 3
    assert _events(block) == 15
    assert block["busy_seconds"] == pytest.approx(1.5)
    assert block["cpu_seconds"] == pytest.approx(0.7)
    assert block["utilization"] == pytest.approx(0.75)
    assert block["workers"]["101"] == {
        "tasks": 2, "busy_seconds": 1.25, "events": 10, "events_per_second": 8.0,
    }
    assert block["chunks"] == 2 and block["dispatches"] == 1


def test_folded_dispatches_merge_workers_and_rederive_ratios():
    first = _block(2, 2, 1.0, [(0, {}, 0.5, 0.4, 101, 10), (1, {}, 0.25, 0.2, 102, 5)])
    second = _block(2, 1, 0.5, [(0, {}, 0.25, 0.1, 101, 2)])
    assert _fold_dispatches([first]) == first  # one dispatch folds to itself
    folded = _fold_dispatches([first, second])
    assert (folded["tasks"], folded["chunks"], folded["dispatches"]) == (3, 3, 2)
    assert folded["wall_seconds"] == pytest.approx(1.5)
    assert folded["busy_seconds"] == pytest.approx(1.0)
    # 1.0 s busy of 2 workers x 1.5 s, not a mean of the two dispatches' ratios
    assert folded["utilization"] == pytest.approx(1.0 / 3.0)
    assert folded["workers"]["101"] == {
        "tasks": 2, "busy_seconds": 0.75, "events": 12, "events_per_second": 16.0,
    }
    assert list(folded["workers"]) == ["101", "102"]


def test_pool_counts_a_cell_without_events_as_a_task_with_zero_events():
    """A cell whose result carries no ``events`` key, or is no mapping at
    all (the perf harness dispatches ``os.getpid``), still counts as a
    task and adds 0 events."""
    rows = _run_chunk(no_events, [(0, {"x": 2}), (1, {"x": 3})])
    assert [row[5] for row in rows] == [0, 0]
    pool = WorkerPool(2)
    try:
        rows, block = pool.run(no_events, [{"x": x} for x in (1, 2, 3)])
        assert [metrics["square"] for metrics, _, _ in rows] == [1, 4, 9]
        assert (block["tasks"], _events(block)) == (3, 0)
        _rows, block = pool.run(os.getpid, [{}, {}], chunksize=1)
        assert (block["tasks"], _events(block)) == (2, 0)
    finally:
        pool.shutdown()


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
    rows, block = pool.run(square, [])
    assert rows == [] and block["tasks"] == 0
    assert pool._executor is None  # nothing to do: no workers were spawned


def test_a_dead_worker_fails_one_dispatch_and_the_pool_respawns():
    """A cell that kills its worker raises ``ExecError``, not the executor's
    ``BrokenProcessPool``; the broken executor is dropped, so the next
    dispatch on the same pool respawns it and computes correctly."""
    pool = WorkerPool(2)
    try:
        pool.run(square, [{"x": 1}])
        with pytest.raises(ExecError, match="lost a worker"):
            pool.run(die, [{"x": 1}, {"x": 2}])
        rows, block = pool.run(square, [{"x": x} for x in (2, 3)])
        assert [metrics["square"] for metrics, _, _ in rows] == [4, 9]
        assert block["tasks"] == 2
        assert pool.spawned == 2
    finally:
        pool.shutdown()
