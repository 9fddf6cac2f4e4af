"""The content-addressed on-disk cell cache (``.blazes-cache/``).

Campaign and benchmark cells are deterministic functions of their
parameters, so a finished cell's metric mapping can be stored once and
served on every identical rerun.  Entries are addressed purely by
content: the cache key is a sha256 over the canonical JSON of

* the cache schema version (:data:`CACHE_SCHEMA_VERSION`) and a digest
  of the ``repro`` package source (:func:`source_digest`) — a schema
  bump or an edit to any source file orphans every old entry, so a
  cell computed by different code is never served;
* the caller-supplied key fields — for an audit cell that is the app,
  strategy, *compiled* fault-schedule digest, horizon, seeds, and a
  digest of the runner kwargs; for a generic bench cell the bench name
  and scenario parameters.

Values round-trip through JSON (tuples come back as lists), carry the
original wall/cpu cost of computing the cell (so a warm ``BENCH_*.json``
still reports true compute cost), and are written atomically
(temp file + ``os.replace``) so concurrent writers never corrupt an
entry.  ``blazes cache clear`` (or :meth:`CellCache.clear`) empties the
store; ``BLAZES_CACHE_DIR`` relocates it.  The cache counts nothing
itself: :func:`repro.exec.evaluate` counts a run's hits and misses in
its engine block, and ``blazes cache stats`` prints only the store.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.errors import ExecError
from repro.exec.canon import canonical, content_digest

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellCache",
    "default_cache_dir",
    "kwargs_digest",
    "schedule_digest",
    "source_digest",
]

# v2: audit-cell metrics gained the envelope status fields
# (status / in_envelope / envelope_violations)
CACHE_SCHEMA_VERSION = 2
CACHE_DIR_ENV = "BLAZES_CACHE_DIR"


def default_cache_dir() -> Path:
    """Where cached cells live: ``$BLAZES_CACHE_DIR`` or ``.blazes-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, ".blazes-cache"))


@functools.cache
def source_digest(root: Path = Path(__file__).resolve().parents[1]) -> str:
    """The sha256 of every ``*.py`` under ``root`` (the ``repro`` package).

    Paths and contents both enter, in sorted order; computed once per
    process, since the code a process runs does not change under it.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def kwargs_digest(kwargs: Mapping[str, Any]) -> str:
    """A stable digest of a runner-kwargs mapping (workload objects and
    other non-JSON values fall back to their deterministic repr)."""
    return content_digest(kwargs)


def schedule_digest(schedule) -> str:
    """The digest of a *compiled* fault schedule: its faults, not its name.

    Two schedules with identical fault content share cache entries; any
    change to a fault's timing, target, or probability changes the key.
    """
    return content_digest(
        [
            (type(fault).__name__, dataclasses.asdict(fault))
            for fault in schedule.faults
        ]
    )


def _atomic_write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as exc:
        raise ExecError(f"cannot write the cell cache at {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CellCache:
    """One content-addressed store of finished cell results.

    :meth:`stats` lists the store once per cache object and keeps the
    summary current for the :meth:`put` and :meth:`clear` calls made
    through it, so a sweep that evaluates batch after batch does not
    re-read a store that only it writes.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self._sizes: dict[Path, int] | None = None  # entry -> bytes, once listed

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def key(self, fields: Mapping[str, Any]) -> str:
        """The content address of one cell."""
        return content_digest(
            {
                "cache_schema": CACHE_SCHEMA_VERSION,
                "source": source_digest(),
                **fields,
            }
        )

    def _path(self, key: str) -> Path:
        return self.directory / "objects" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored entry for ``key``, or ``None`` on a miss.

        A corrupt or schema-mismatched entry — not UTF-8, not JSON, or
        without a ``metrics`` mapping — is treated as a miss; the next
        :meth:`put` overwrites it.
        """
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):  # JSONDecodeError, UnicodeDecodeError
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("cache_schema") != CACHE_SCHEMA_VERSION
            or not isinstance(payload.get("metrics"), dict)
        ):
            return None
        return payload

    def put(
        self,
        key: str,
        metrics: Mapping[str, Any],
        *,
        wall_seconds: float,
        cpu_seconds: float | None = None,
        fields: Mapping[str, Any] | None = None,
    ) -> Path:
        """Store one finished cell atomically; returns the entry path."""
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fields": canonical(fields) if fields is not None else None,
            "metrics": metrics,
            "wall_seconds": wall_seconds,
            "cpu_seconds": cpu_seconds,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        path = self._path(key)
        text = json.dumps(payload, sort_keys=True, default=repr) + "\n"
        _atomic_write(path, text)
        if self._sizes is not None:
            self._sizes[path] = len(text)  # ASCII: json.dumps escapes the rest
        return path

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        objects = self.directory / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def clear(self) -> int:
        """Remove every entry; returns the count."""
        removed = len(self.entries())
        shutil.rmtree(self.directory / "objects", ignore_errors=True)
        self._sizes = {}
        return removed

    def stats(self) -> dict[str, Any]:
        """The on-disk store summary."""
        if self._sizes is None:
            self._sizes = {path: path.stat().st_size for path in self.entries()}
        return {
            "directory": str(self.directory),
            "entries": len(self._sizes),
            "size_bytes": sum(self._sizes.values()),
        }
