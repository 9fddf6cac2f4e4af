"""The evaluation engine: one entry point for every cell sweep.

:func:`evaluate` is the single execution path behind ``blazes audit``,
``blazes audit --matrix``, the figure benchmarks, and seed-digest
regeneration.  It takes an ordinary :class:`~repro.bench.Scenario` list
plus the module-level measurement function and

1. serves every cell it can from the content-addressed
   :class:`~repro.exec.cache.CellCache` (when one is supplied),
2. computes the remaining cells — serially, or fanned out over the
   process-wide warm :class:`~repro.exec.pool.WorkerPool` when
   ``jobs > 1``,
3. merges everything back **in scenario order** into a standard
   :class:`~repro.bench.BenchReport`, indistinguishable from a serial
   uncached run, and
4. attaches an ``engine`` accounting block (cells, hits, misses, the
   events of every computed cell, the pool's dispatch block) to the
   report and folds it into the cache directory's ledger, ``stats.json``,
   which ``blazes cache stats`` prints.

It is the one counter of cache hits and misses, and it times a serial
cell with the function the pool workers use (:func:`~repro.exec.pool.time_cell`).

A block is one engine run: a sweep (:meth:`repro.chaos.campaign.Sweep.run`)
records the :func:`fold` of its batches' blocks once, and the ledger's
``totals`` are the fold of every recorded run beside their count ``runs``.

``resolve_jobs`` maps the CLI convention onto a worker count: an
explicit ``--jobs`` wins, else ``BLAZES_JOBS``, else serial.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.bench.runner import BenchReport, assemble_report
from repro.errors import ExecError
from repro.exec.cache import STATS_FILE, CellCache, _atomic_write, default_cache_dir
from repro.exec.pool import _events, _fold_dispatches, shared_pool, time_cell

__all__ = [
    "JOBS_ENV",
    "bench_cache_fields",
    "evaluate",
    "fold",
    "read_engine_stats",
    "record_engine_stats",
    "resolve_jobs",
]

JOBS_ENV = "BLAZES_JOBS"
# the fields of a block that add up over runs; the rest are as the last run saw them
_SUMMED = ("cells", "computed", "cache_hits", "cache_misses", "events", "batches", "wall_seconds")


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit value, else ``$BLAZES_JOBS``,
    else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ExecError(f"{JOBS_ENV}={raw!r} is not an integer") from exc
    if jobs < 1:
        raise ExecError(f"jobs must be >= 1, got {jobs}")
    return jobs


def bench_cache_fields(bench: str) -> Callable[[Any], dict[str, Any]]:
    """The generic cache-key fields for a figure benchmark's scenarios:
    the bench name plus the scenario's full parameter point."""

    def fields(scenario) -> dict[str, Any]:
        return {
            "kind": "bench",
            "bench": bench,
            "scenario": scenario.name,
            "params": dict(scenario.params),
        }

    return fields


def evaluate(
    name: str,
    scenarios: Iterable[Any],
    fn: Callable[..., Mapping[str, Any]],
    *,
    jobs: int = 1,
    cache: CellCache | None = None,
    cache_fields: Callable[[Any], Mapping[str, Any]] | None = None,
    reporter: Any | None = None,
) -> BenchReport:
    """Evaluate every scenario through the cache and the warm pool.

    ``fn`` takes the scenario's params as keyword arguments and returns
    a JSON-serializable metric mapping (anything else raises
    :class:`~repro.errors.BenchError`); with ``jobs > 1`` it must be
    module-level (picklable).  Pass a :class:`~repro.bench.JsonReporter`
    as ``reporter`` to also write ``BENCH_<name>.json``.
    ``cache_fields`` maps a scenario to the key fields that make its
    result content-addressable; without it (or without ``cache``) every
    cell is computed.  Cached metrics round-trip through JSON, so tuples
    come back as lists — measurement functions return JSON-shaped
    metrics already (they feed ``BENCH_*.json``).

    Returns the assembled :class:`~repro.bench.BenchReport` with the
    engine accounting block attached as ``report.engine``.
    """
    report = _evaluate(name, scenarios, fn, jobs, cache, cache_fields)
    if cache is not None:
        record_engine_stats(report.engine, cache.directory)
    if reporter is not None:
        reporter.write(report)
    return report


def _evaluate(name, scenarios, fn, jobs, cache, cache_fields) -> BenchReport:
    """:func:`evaluate` without recording or writing the report: one batch
    of a sweep, which records the fold of its batches once."""
    jobs = resolve_jobs(jobs)
    scenarios = list(scenarios)
    start = time.perf_counter()

    outcomes: list[tuple[Any, float, float | None] | None] = [None] * len(scenarios)
    keys: list[str | None] = [None] * len(scenarios)
    fields: list[Mapping[str, Any] | None] = [None] * len(scenarios)
    pending: list[int] = []
    hits = 0
    for index, scenario in enumerate(scenarios):
        if cache is not None and cache_fields is not None:
            fields[index] = cache_fields(scenario)
            key = cache.key(fields[index])
            keys[index] = key
            entry = cache.get(key)
            if entry is not None:
                outcomes[index] = (
                    entry["metrics"],
                    entry.get("wall_seconds", 0.0),
                    entry.get("cpu_seconds"),
                )
                hits += 1
                continue
        pending.append(index)

    pool = None
    events = 0
    if pending:
        params_list = [dict(scenarios[index].params) for index in pending]
        if jobs > 1:
            computed, pool = shared_pool(jobs).run(fn, params_list)
        else:
            computed = [time_cell(fn, params) for params in params_list]
        for index, outcome in zip(pending, computed):
            outcomes[index] = outcome
            events += _events(outcome[0])
            if cache is not None and keys[index] is not None:
                metrics, wall, cpu = outcome
                cache.put(
                    keys[index],
                    metrics,
                    wall_seconds=wall,
                    cpu_seconds=cpu,
                    fields=fields[index],
                )

    engine = {
        "name": name,
        "jobs": jobs,
        "cells": len(scenarios),
        "computed": len(pending),
        "cache_enabled": cache is not None,
        "cache_hits": hits,
        "cache_misses": len(pending) if cache is not None else 0,
        "events": events,
        "batches": 1,
        "wall_seconds": time.perf_counter() - start,
        "pool": pool,
        "cache": cache.stats() if cache is not None else None,
    }
    report = assemble_report(name, scenarios, outcomes)
    report.engine = engine
    return report


def fold(blocks: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Engine blocks as one of the same shape: counts and walls summed,
    the pool's dispatches folded, and the name, worker count and store as
    the last block saw them."""
    folded = dict(blocks[-1])
    folded.update({key: sum(block[key] for block in blocks) for key in _SUMMED})
    pools = [block["pool"] for block in blocks if block["pool"]]
    folded["pool"] = _fold_dispatches(pools) if pools else None
    return folded


def read_engine_stats(directory: str | Path | None = None) -> dict[str, Any]:
    """The ledger ``blazes cache stats`` prints: ``totals`` and ``last``.
    Empty when absent, unreadable, or of an older layout (started afresh,
    never summed into)."""
    path = (Path(directory) if directory is not None else default_cache_dir()) / STATS_FILE
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):  # JSONDecodeError, UnicodeDecodeError
        return {}
    totals = payload.get("totals") if isinstance(payload, dict) else None
    if not isinstance(totals, dict) or not {"runs", "pool", *_SUMMED} <= totals.keys():
        return {}
    return payload


def record_engine_stats(engine: Mapping[str, Any], directory: str | Path | None = None) -> None:
    """Fold one engine run into the ledger: a best-effort read-modify-write
    whose atomic replace may drop a concurrent run but never corrupts the
    file.  The totals keep no per-worker split: a pid outlives no command."""
    base = Path(directory) if directory is not None else default_cache_dir()
    totals = read_engine_stats(base).get("totals")
    runs = (totals["runs"] if totals else 0) + 1
    folded = {"runs": runs, **fold([totals, engine] if totals else [engine])}
    if folded["pool"]:
        folded["pool"]["workers"] = {}
    payload = {"totals": folded, "last": engine}
    _atomic_write(base / STATS_FILE, json.dumps(payload, indent=2, sort_keys=True) + "\n")
