"""The persistent warm worker pool behind every parallel cell evaluation.

A fresh executor per sweep would re-pay worker spawn and a full ``import
repro`` per worker, more than a smoke cell costs, so this module keeps ONE
pool per process:

* workers are spawned once (:func:`shared_pool`) and **pre-import** the
  library and its app registry (:data:`PRELOAD`), so a dispatched cell
  starts computing immediately;
* dispatch is **chunked** — tasks ship in contiguous chunks so the
  per-message IPC cost amortizes over several cells;
* the merge is **order-independent**: every task carries its input index
  and results are placed by index as chunks complete, so the returned
  list is always in input order no matter which worker finished first —
  a pooled run is indistinguishable from a serial one;
* every dispatch returns its accounting block beside its rows (chunks,
  utilization, per-worker busy time and events/sec), built from what
  the workers report; ``_fold_dispatches`` folds several into one block
  of the same shape (how :func:`repro.exec.engine.fold` folds ``pool``);
* a worker that dies mid-dispatch breaks only that dispatch: it raises
  :class:`~repro.errors.ExecError` and the next dispatch respawns the
  pool.

The start method is ``fork`` where available (workers inherit the warm
parent image outright) and ``spawn`` elsewhere; cells are self-contained
and re-seed their own simulated clusters, so results are identical under
either method.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any

from repro.errors import ExecError

__all__ = ["PRELOAD", "WorkerPool", "shared_pool", "shutdown_shared_pool", "time_cell"]

# Modules every worker imports on spawn: the library root plus the
# registries the campaign and the benchmarks resolve apps through.
PRELOAD = ("repro", "repro.apps", "repro.chaos.campaign")


def _start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _warm_worker(modules: Sequence[str]) -> None:
    """Worker initializer: pre-import the library so cells start warm."""
    for name in modules:
        importlib.import_module(name)


def time_cell(fn: Callable[..., Any], params: Mapping[str, Any]) -> tuple[Any, float, float]:
    """Call ``fn(**params)`` and return ``(result, wall_seconds, cpu_seconds)``.

    ``cpu_seconds`` is this process's CPU time (``time.process_time``):
    on a loaded or oversubscribed machine it separates "the cell got
    slower" from "the cell got less CPU", which wall clock alone cannot.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    result = fn(**params)
    return result, time.perf_counter() - wall_start, time.process_time() - cpu_start


def _events(metrics: Any) -> int:
    """A cell's simulated-event count: its ``events`` metric, else 0 (a
    result that is no mapping, or carries no count)."""
    return (metrics.get("events") if isinstance(metrics, Mapping) else None) or 0


def _run_chunk(fn, tasks):
    """Worker side: one chunk of ``(index, params)`` tasks.

    Returns ``(index, metrics, wall, cpu, pid, events)`` per task
    (``events`` feeds the per-worker events/sec telemetry).
    """
    pid = os.getpid()
    rows = []
    for index, params in tasks:
        metrics, wall, cpu = time_cell(fn, params)
        rows.append((index, metrics, wall, cpu, pid, _events(metrics)))
    return rows


def _block(jobs: int, chunks: int, wall: float, rows) -> dict[str, Any]:
    """One dispatch's accounting, from the workers' ``_run_chunk`` rows:
    the fold of one.  Events live in the per-worker split only; the
    engine's block totals them over every computed cell, pooled or not."""
    workers: dict[str, dict[str, Any]] = {}
    for _index, _metrics, busy, _cpu, pid, events in rows:
        worker = workers.setdefault(str(pid), {"tasks": 0, "busy_seconds": 0.0, "events": 0})
        worker["tasks"] += 1
        worker["busy_seconds"] += busy
        worker["events"] += events
    busy = sum((worker["busy_seconds"] for worker in workers.values()), 0.0)
    cpu = sum((row[3] for row in rows), 0.0)
    return _fold_dispatches([{
        "jobs": jobs, "tasks": len(rows), "chunks": chunks, "dispatches": 1,
        "wall_seconds": wall, "busy_seconds": busy, "cpu_seconds": cpu, "workers": workers,
    }])


def _fold_dispatches(blocks: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Dispatch blocks as one of the same shape: counts and times summed,
    workers merged by pid, the ratios re-derived, ``jobs`` the last's."""
    workers: dict[str, dict[str, Any]] = {}
    for block in blocks:
        for pid, worker in block["workers"].items():
            total = workers.setdefault(pid, {"tasks": 0, "busy_seconds": 0.0, "events": 0})
            for key in total:
                total[key] += worker[key]
    summed = ("tasks", "chunks", "dispatches", "wall_seconds", "busy_seconds", "cpu_seconds")
    folded = {"jobs": blocks[-1]["jobs"], **{key: sum(block[key] for block in blocks) for key in summed}}
    capacity = folded["wall_seconds"] * folded["jobs"]
    # the fraction of the pool's capacity the dispatches actually used
    folded["utilization"] = min(1.0, folded["busy_seconds"] / capacity) if capacity > 0.0 else 0.0
    folded["workers"] = {}
    for pid, worker in sorted(workers.items(), key=lambda item: int(item[0])):
        busy = worker["busy_seconds"]
        folded["workers"][pid] = {**worker, "events_per_second": worker["events"] / busy if busy > 0 else 0.0}
    return folded


class WorkerPool:
    """A persistent pool of warm worker processes.

    The executor is created lazily on the first :meth:`run` and kept
    alive across calls; :attr:`spawned` counts executor (re)creations so
    tests can assert warm reuse.  ``fn`` must be a module-level
    (picklable) callable taking keyword arguments and returning a metric
    mapping, exactly like a :func:`repro.exec.evaluate` measurement.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ExecError(f"worker pool needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None
        self.spawned = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context(_start_method())
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_warm_worker,
                initargs=(PRELOAD,),
            )
            self.spawned += 1
        return self._executor

    def resize(self, jobs: int) -> None:
        """Change the worker count; respawns on next dispatch."""
        if jobs < 1:
            raise ExecError(f"worker pool needs jobs >= 1, got {jobs}")
        if jobs == self.jobs:
            return
        self.shutdown()
        self.jobs = jobs

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def run(
        self,
        fn: Callable[..., Mapping[str, Any]],
        param_list: Sequence[Mapping[str, Any]],
        *,
        chunksize: int | None = None,
    ) -> tuple[list[tuple[Any, float, float]], dict[str, Any]]:
        """Evaluate ``fn(**params)`` for every mapping, in input order.

        Returns ``(rows, block)``: ``(metrics, wall_seconds, cpu_seconds)``
        per task, and the dispatch's accounting block (:func:`_block`).
        Worker exceptions propagate to the caller, as they would serially.
        A worker that dies takes the executor with it: the pool drops it,
        so the next dispatch respawns, and raises :class:`ExecError`.
        """
        tasks = list(enumerate(param_list))
        if not tasks:
            return [], _block(self.jobs, 0, 0.0, [])
        # ~4 chunks per worker: large enough to amortize IPC, small
        # enough that a straggler chunk cannot idle the rest of the pool
        size = chunksize or max(1, -(-len(tasks) // (self.jobs * 4)))
        chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]
        start = time.perf_counter()
        done = []
        executor = self._ensure()
        try:
            futures = [executor.submit(_run_chunk, fn, chunk) for chunk in chunks]
            for future in as_completed(futures):
                done.extend(future.result())
        except BrokenExecutor as exc:
            self.shutdown()
            raise ExecError(
                f"the worker pool lost a worker mid-dispatch ({exc}); "
                "the next dispatch respawns it"
            ) from exc
        wall = time.perf_counter() - start
        rows: list[Any] = [None] * len(tasks)
        for index, metrics, busy, cpu, _pid, _events in done:
            rows[index] = (metrics, busy, cpu)
        return rows, _block(self.jobs, len(chunks), wall, done)


_SHARED: WorkerPool | None = None
_ATEXIT_ARMED = False


def shared_pool(jobs: int) -> WorkerPool:
    """The process-wide warm pool, resized (respawned) only when the
    requested worker count changes."""
    global _SHARED, _ATEXIT_ARMED
    if _SHARED is None:
        _SHARED = WorkerPool(jobs)
        if not _ATEXIT_ARMED:
            atexit.register(shutdown_shared_pool)
            _ATEXIT_ARMED = True
    elif _SHARED.jobs != jobs:
        _SHARED.resize(jobs)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Tear down the process-wide pool (tests; interpreter exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None
