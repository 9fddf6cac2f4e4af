"""The parallel evaluation engine: warm worker pool + content-addressed cache.

Everything that sweeps independent deterministic cells — ``blazes audit``,
the Figure 6 matrix, the figure benchmarks, seed-digest regeneration —
executes through :func:`~repro.exec.engine.evaluate`: cached cells are
served from ``.blazes-cache/``, the rest fan out over one process-wide
pool of warm workers, and the merged report is byte-identical to a serial
uncached run.  See ``docs/performance.md``.
"""

from repro._lazy import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".cache": ("CACHE_SCHEMA_VERSION", "CellCache", "default_cache_dir"),
    ".canon": ("canonical", "canonical_json", "content_digest"),
    ".engine": ("JOBS_ENV", "bench_cache_fields", "evaluate", "resolve_jobs"),
    ".pool": ("WorkerPool", "shared_pool", "shutdown_shared_pool"),
})
