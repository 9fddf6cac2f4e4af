"""The persistent warm worker pool behind every parallel cell evaluation.

The previous parallel path (``audit_campaign(jobs=N)``) created a fresh
``ProcessPoolExecutor`` per call, so every invocation re-paid worker
spawn plus a full ``import repro`` in each worker — dwarfing the cells
themselves now that the PR-6 kernel made single cells fast.  This module
keeps ONE pool per process:

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
  the workers report; :func:`repro.exec.evaluate` folds it into the
  cache's ``stats.json`` (``blazes cache stats``);
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


def _run_chunk(fn, tasks):
    """Worker side: one chunk of ``(index, params)`` tasks.

    Returns ``(index, metrics, wall, cpu, pid, events)`` per task;
    ``events`` is the cell's simulated-event count when its metric
    mapping carries one (feeds the per-worker events/sec telemetry).
    """
    pid = os.getpid()
    rows = []
    for index, params in tasks:
        metrics, wall, cpu = time_cell(fn, params)
        events = metrics.get("events") if isinstance(metrics, Mapping) else None
        rows.append((index, metrics, wall, cpu, pid, events or 0))
    return rows


def _block(jobs: int, chunks: int, wall: float, rows) -> dict[str, Any]:
    """One dispatch's accounting, from the workers' ``_run_chunk`` rows.

    The ``tasks``, ``busy_seconds`` and ``events`` totals are sums of the
    per-worker rows; what a pool did over its lifetime is the sum of its
    dispatches, kept in the cache's ``stats.json``.
    """
    workers: dict[int, dict[str, float]] = {}
    cpu_seconds = 0.0
    for _index, _metrics, busy, cpu, pid, events in rows:
        worker = workers.setdefault(pid, {"tasks": 0, "busy_seconds": 0.0, "events": 0})
        worker["tasks"] += 1
        worker["busy_seconds"] += busy
        worker["events"] += events
        cpu_seconds += cpu
    busy_seconds = sum((worker["busy_seconds"] for worker in workers.values()), 0.0)
    return {
        "jobs": jobs,
        "tasks": len(rows),
        "chunks": chunks,
        "dispatches": 1,  # one record per dispatch
        "wall_seconds": wall,
        "busy_seconds": busy_seconds,
        "cpu_seconds": cpu_seconds,
        "events": sum(worker["events"] for worker in workers.values()),
        # the fraction of the pool's capacity the dispatch actually used
        "utilization": min(1.0, busy_seconds / (wall * jobs)) if wall > 0.0 else 0.0,
        "workers": {
            str(pid): {
                **worker,
                "events_per_second": (
                    worker["events"] / worker["busy_seconds"] if worker["busy_seconds"] > 0 else 0.0
                ),
            }
            for pid, worker in sorted(workers.items())
        },
    }


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
