"""The content-addressed cell cache: keying, round-trips, invalidation."""

from __future__ import annotations

import json
import re

import pytest

from repro.bench import sweep
from repro.chaos.harnesses import harness_for
from repro.errors import ExecError
from repro.exec import (
    CACHE_SCHEMA_VERSION,
    CellCache,
    bench_cache_fields,
    evaluate,
    read_engine_stats,
)
from repro.exec.cache import kwargs_digest, schedule_digest
from repro.exec.engine import record_engine_stats
from repro.exec.pool import _block

FIELDS = {"kind": "test", "app": "wordcount", "strategy": "sealed", "seed": 7}


def test_key_is_stable_and_field_sensitive(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    assert key == cache.key(dict(FIELDS))  # same content, same address
    for field, changed in (
        ("seed", 8),
        ("strategy", "ordered"),
        ("app", "kvs"),
        ("kind", "other"),
    ):
        assert cache.key({**FIELDS, field: changed}) != key, field


def test_key_tracks_the_package_source(tmp_path, monkeypatch):
    """Editing any source file orphans every entry; nothing else does."""
    from repro.exec import cache as cache_module

    cache = CellCache(tmp_path)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "digest-a")
    key = cache.key(FIELDS)
    assert cache.key(FIELDS) == key
    monkeypatch.setattr(cache_module, "source_digest", lambda: "digest-b")
    assert cache.key(FIELDS) != key


def test_source_digest_covers_paths_and_contents(tmp_path):
    from repro.exec.cache import source_digest

    def tree(name: str, files: dict[str, str]):
        root = tmp_path / name
        for relative, text in files.items():
            (root / relative).parent.mkdir(parents=True, exist_ok=True)
            (root / relative).write_text(text)
        return root

    base = {"a.py": "x = 1\n", "sub/b.py": "y = 2\n"}
    digest = source_digest(tree("base", base))
    assert source_digest(tree("same", {**base, "notes.txt": "ignored"})) == digest
    assert source_digest(tree("edited", {**base, "sub/b.py": "y = 3\n"})) != digest
    assert source_digest(tree("moved", {"a.py": "x = 1\n", "b.py": "y = 2\n"})) != digest
    assert len(source_digest()) == 64  # the installed package, hashed once


def test_put_get_roundtrip(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    assert cache.get(key) is None
    cache.put(key, {"score": 3, "pair": (1, 2)}, wall_seconds=0.5, fields=FIELDS)
    entry = cache.get(key)
    # values round-trip through JSON: tuples come back as lists
    assert entry["metrics"] == {"score": 3, "pair": [1, 2]}
    assert entry["wall_seconds"] == 0.5
    assert entry["fields"]["app"] == "wordcount"


def test_a_cache_directory_that_is_a_file_is_an_exec_error(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    cache = CellCache(blocker)
    with pytest.raises(ExecError, match=re.escape(f"cannot write the cell cache at {blocker}")):
        cache.put(cache.key(FIELDS), {"score": 1}, wall_seconds=0.1)


def test_corrupt_or_mismatched_entries_read_as_misses(tmp_path):
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    path = cache.put(key, {"score": 1}, wall_seconds=0.1)
    path.write_text("not json{")
    assert cache.get(key) is None
    # a schema bump orphans old entries rather than serving them
    payload = {"cache_schema": CACHE_SCHEMA_VERSION + 1, "metrics": {"score": 1}}
    path.write_text(json.dumps(payload))
    assert cache.get(key) is None


@pytest.mark.parametrize(
    "stored",
    (
        b"\xff\xfe not utf-8",
        json.dumps({"cache_schema": CACHE_SCHEMA_VERSION}).encode(),
        json.dumps({"cache_schema": CACHE_SCHEMA_VERSION, "metrics": [1]}).encode(),
    ),
    ids=("not-utf8", "no-metrics", "metrics-a-list"),
)
def test_an_unreadable_entry_is_a_miss_and_unreadable_stats_are_empty(tmp_path, stored):
    """Whatever an object file holds, ``get`` serves a metrics mapping or
    counts a miss, and the stats file reads as a mapping."""
    cache = CellCache(tmp_path)
    key = cache.key(FIELDS)
    cache.put(key, {"score": 1}, wall_seconds=0.1).write_bytes(stored)
    assert cache.get(key) is None
    (tmp_path / "stats.json").write_bytes(stored)
    assert isinstance(read_engine_stats(tmp_path), dict)


def test_clear_empties_the_store(tmp_path):
    cache = CellCache(tmp_path)
    for seed in (1, 2, 3):
        cache.put(cache.key({**FIELDS, "seed": seed}), {"s": seed}, wall_seconds=0.1)
    assert len(cache.entries()) == 3
    assert cache.clear() == 3
    assert cache.entries() == []
    assert cache.stats()["entries"] == 0


def test_stats_summarize_the_store(tmp_path):
    cache = CellCache(tmp_path)
    cache.put(cache.key(FIELDS), {"score": 1}, wall_seconds=0.1)
    stats = cache.stats()
    assert stats["directory"] == str(tmp_path)
    assert stats["entries"] == 1
    assert stats["size_bytes"] > 0


def test_the_engine_lists_the_store_once_per_cache(tmp_path, monkeypatch):
    """``evaluate`` reports the store's summary on every call; one cache
    lists its store once and keeps that summary exact through its own
    puts, overwrites and clears, while a fresh cache reads the disk."""
    monkeypatch.delenv("BLAZES_JOBS", raising=False)
    listings = []
    entries = CellCache.entries
    monkeypatch.setattr(CellCache, "entries", lambda self: listings.append(self) or entries(self))
    cache = CellCache(tmp_path)
    cache.put(cache.key(FIELDS), {"score": 1}, wall_seconds=0.1)  # already on disk

    def cell(*, a: int) -> dict:
        return {"a": a, "events": a}

    for first in (1, 2, 3):  # overlapping batches: hits and misses
        scenarios = sweep("a{a}", {"a": (first, first + 1)})
        report = evaluate("toy", scenarios, cell, cache=cache, cache_fields=bench_cache_fields("toy"))
    assert len(listings) == 1
    assert report.engine["cache"] == CellCache(tmp_path).stats()
    assert report.engine["cache"]["entries"] == 5
    cache.put(cache.key(FIELDS), {"score": "a longer value"}, wall_seconds=0.1)
    assert cache.stats() == CellCache(tmp_path).stats()
    cache.clear()
    assert cache.stats() == CellCache(tmp_path).stats() == {
        "directory": str(tmp_path), "entries": 0, "size_bytes": 0,
    }
    assert len(listings) == 5  # the two fresh caches' listings and clear's


def test_schedule_digest_tracks_compiled_faults_not_names():
    harness = harness_for("wordcount", smoke=True)
    schedules = {sched.name: sched for sched in harness.schedules}
    digests = {
        name: schedule_digest(sched.scaled(harness.horizon))
        for name, sched in schedules.items()
    }
    # distinct fault content -> distinct addresses...
    assert len(set(digests.values())) == len(digests)
    # ...and the digest follows the *compiled* faults: a different
    # horizon scale is a different schedule, recomputing the digest of
    # the same compiled schedule is stable
    some = next(sched for sched in schedules.values() if sched.faults)
    assert schedule_digest(some.scaled(2.0)) != schedule_digest(some.scaled(4.0))
    assert schedule_digest(some.scaled(2.0)) == schedule_digest(some.scaled(2.0))


def test_kwargs_digest_covers_non_json_values():
    base = {"workers": 4, "workload": object}
    assert kwargs_digest(base) == kwargs_digest(dict(base))
    assert kwargs_digest(base) != kwargs_digest({**base, "workers": 5})


def _engine(**fields) -> dict:
    """One engine block, as ``evaluate`` builds it, of a pooled run."""
    pool = _block(2, 3, 0.5, [(0, {}, 0.5, 0.4, 101, 60), (1, {}, 0.25, 0.2, 102, 40)])
    return {
        "name": "toy", "jobs": 2, "cells": 10, "computed": 6, "cache_enabled": True,
        "cache_hits": 4, "cache_misses": 6, "events": 100, "batches": 3,
        "wall_seconds": 1.0, "pool": pool, "cache": None, **fields,
    }


def test_engine_stats_accumulate_across_runs(tmp_path):
    """The ledger's totals are the fold of every recorded run, in the
    block's own shape, beside their count; ``last`` is the last block."""
    engine = _engine()
    record_engine_stats(engine, tmp_path)
    record_engine_stats(_engine(pool=None), tmp_path)
    record_engine_stats(engine, tmp_path)
    stats = read_engine_stats(tmp_path)
    totals = stats["totals"]
    assert set(stats) == {"totals", "last"}
    assert set(totals) == {"runs", *engine}
    assert (totals["runs"], totals["batches"], totals["cells"]) == (3, 9, 30)
    assert (totals["cache_hits"], totals["events"]) == (12, 300)
    assert (totals["pool"]["tasks"], totals["pool"]["dispatches"]) == (4, 2)
    assert totals["pool"]["busy_seconds"] == pytest.approx(1.5)
    assert totals["pool"]["workers"] == {}  # a pid names nothing after its command
    assert stats["last"] == engine


def test_a_ledger_in_the_flat_layout_is_started_afresh(tmp_path):
    """A ``stats.json`` with flat ``pool_*`` totals and no ``batches``
    reads as empty, and the next run starts new totals, not summed into
    the old ones."""
    flat = {"runs": 18, "cells": 44, "computed": 44, "cache_hits": 0, "cache_misses": 44,
            "pool_tasks": 0, "pool_busy_seconds": 0.0, "pool_wall_seconds": 0.0, "events": 0}
    (tmp_path / "stats.json").write_text(json.dumps({"totals": flat, "last": {"cells": 1}}))
    assert read_engine_stats(tmp_path) == {}
    record_engine_stats(_engine(), tmp_path)
    totals = read_engine_stats(tmp_path)["totals"]
    assert (totals["runs"], totals["cells"], totals["events"]) == (1, 10, 100)


def test_engine_stats_read_is_empty_when_absent(tmp_path):
    assert read_engine_stats(tmp_path / "nope") == {}
