"""The evaluation engine: serial/pooled/cached runs are one computation."""

from __future__ import annotations

import pytest

from repro.bench import sweep
from repro.errors import ExecError
from repro.exec import (
    CellCache,
    bench_cache_fields,
    evaluate,
    report_digest,
    resolve_jobs,
    shutdown_shared_pool,
)

SCENARIOS = sweep("a{a}-b{b}", {"a": (1, 2, 3), "b": (10, 20)})


@pytest.fixture(autouse=True)
def _isolated_shared_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def cell(*, a: int, b: int) -> dict:
    return {"sum": a + b, "product": a * b, "events": a}


def test_resolve_jobs_explicit_env_and_default(monkeypatch):
    monkeypatch.delenv("BLAZES_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(4) == 4
    monkeypatch.setenv("BLAZES_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # an explicit value beats the environment
    monkeypatch.setenv("BLAZES_JOBS", "zero")
    with pytest.raises(ExecError, match="not an integer"):
        resolve_jobs()
    with pytest.raises(ExecError, match=">= 1"):
        resolve_jobs(0)


def test_serial_and_pooled_runs_are_identical():
    serial = evaluate("toy", SCENARIOS, cell)
    pooled = evaluate("toy", SCENARIOS, cell, jobs=2)
    assert report_digest(serial) == report_digest(pooled)
    assert [r.name for r in pooled] == [s.name for s in SCENARIOS]
    assert pooled.engine["jobs"] == 2
    assert pooled.engine["pool"]["tasks"] == len(SCENARIOS)


def test_engine_block_shape_on_a_serial_uncached_run():
    report = evaluate("toy", SCENARIOS, cell)
    engine = report.engine
    assert engine["name"] == "toy"
    assert engine["cells"] == engine["computed"] == len(SCENARIOS)
    assert engine["cache_enabled"] is False
    assert engine["cache_hits"] == engine["cache_misses"] == 0
    assert engine["pool"] is None and engine["cache"] is None
    assert engine["wall_seconds"] >= 0.0


def test_cache_serves_identical_reruns(tmp_path):
    cache = CellCache(tmp_path)
    fields = bench_cache_fields("toy")
    cold = evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=fields)
    assert cold.engine["cache_misses"] == len(SCENARIOS)
    assert cold.engine["cache_hits"] == 0
    warm = evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=fields)
    assert warm.engine["cache_hits"] == len(SCENARIOS)
    assert warm.engine["computed"] == 0
    assert report_digest(warm) == report_digest(cold)


def test_cache_misses_on_changed_params_and_bench_name(tmp_path):
    cache = CellCache(tmp_path)
    evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=bench_cache_fields("toy"))
    # a new parameter point shares nothing with the stored grid
    shifted = sweep("a{a}-b{b}", {"a": (4,), "b": (10,)})
    report = evaluate(
        "toy", shifted, cell, cache=cache, cache_fields=bench_cache_fields("toy")
    )
    assert report.engine["cache_hits"] == 0
    # the same grid under another bench name is another address space
    renamed = evaluate(
        "toy", SCENARIOS, cell, cache=cache, cache_fields=bench_cache_fields("toy2")
    )
    assert renamed.engine["cache_hits"] == 0


def test_no_cache_computes_every_cell(tmp_path):
    cache = CellCache(tmp_path)
    fields = bench_cache_fields("toy")
    evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=fields)
    # cache=None is the --no-cache path: nothing read, nothing written
    report = evaluate("toy", SCENARIOS, cell, cache=None, cache_fields=fields)
    assert report.engine["computed"] == len(SCENARIOS)
    assert report.engine["cache_enabled"] is False
    assert len(cache.entries()) == len(SCENARIOS)  # the store is untouched


def test_engine_run_updates_cumulative_stats(tmp_path):
    from repro.exec import read_engine_stats

    cache = CellCache(tmp_path)
    fields = bench_cache_fields("toy")
    evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=fields)
    evaluate("toy", SCENARIOS, cell, cache=cache, cache_fields=fields)
    totals = read_engine_stats(tmp_path)["totals"]
    assert totals["runs"] == 2
    assert totals["cells"] == 2 * len(SCENARIOS)
    assert totals["cache_hits"] == len(SCENARIOS)


def test_audit_cell_cache_fields_track_seeds_and_schedules():
    from repro.bench import Scenario
    from repro.chaos.campaign import _cell_cache_fields
    from repro.chaos.harnesses import harness_for

    def fields_for(seeds=(7, 11), schedule="baseline"):
        return _cell_cache_fields(
            Scenario(
                "wordcount/eager",
                {
                    "app": "wordcount",
                    "strategy": "eager",
                    "schedule": schedule,
                    "smoke": True,
                    "seeds": list(seeds),
                    "app_module": None,
                },
            )
        )

    cache = CellCache("unused")
    base = cache.key(fields_for())
    assert cache.key(fields_for()) == base  # deterministic address
    assert cache.key(fields_for(seeds=(7, 13))) != base
    schedules = {s.name for s in harness_for("wordcount", smoke=True).schedules}
    other = next(name for name in sorted(schedules) if name != "baseline")
    assert cache.key(fields_for(schedule=other)) != base
