"""The parallel evaluation engine: warm worker pool + content-addressed cache.

Everything that sweeps independent deterministic cells — ``blazes audit``,
the Figure 6 matrix, the figure benchmarks, seed-digest regeneration —
executes through :func:`~repro.exec.engine.evaluate`: cached cells are
served from ``.blazes-cache/``, the rest fan out over one process-wide
pool of warm workers, and the merged report is byte-identical to a serial
uncached run.  See ``docs/performance.md``.
"""

from repro.exec.cache import CACHE_SCHEMA_VERSION, CellCache, default_cache_dir
from repro.exec.canon import canonical, canonical_json, content_digest
from repro.exec.engine import JOBS_ENV, bench_cache_fields, evaluate, read_engine_stats, resolve_jobs
from repro.exec.pool import WorkerPool, shared_pool, shutdown_shared_pool

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellCache",
    "JOBS_ENV",
    "WorkerPool",
    "bench_cache_fields",
    "canonical",
    "canonical_json",
    "content_digest",
    "default_cache_dir",
    "evaluate",
    "read_engine_stats",
    "resolve_jobs",
    "shared_pool",
    "shutdown_shared_pool",
]
