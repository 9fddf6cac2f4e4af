"""Machine-readable run directories (the ``--rundir`` artifact).

One finished run is archived as a directory of versioned, line-oriented
artifacts — an OpenDT-style record that a run over either backend (the
simulator or loopback TCP) writes alike, so downstream tooling never
depends on the simulator:

``meta.json``
    Run identity: schema version, app, strategy, seed, backend, kernel,
    events fired, final virtual time, library version, creation stamp.
``metrics.json``
    The outcome's metrics summary (what ``blazes run --json`` prints).
``coordcost.json``
    The run's coordination-cost ledger: the ``coordcost`` block of
    :func:`~repro.obs.coordcost.coordcost_report` (``{}`` for a run
    without a telemetry hub).
``trace.jsonl``
    One JSON object per trace row: ``{"t", "source", "event", "data"}``.
``spans.jsonl``
    One JSON object per captured span event (empty file when the run was
    not traced).

:func:`validate_rundir` is the schema check of every artifact; the tests
run it on the run directories they write.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro import __version__
from repro.errors import ObsError

__all__ = ["RUNDIR_SCHEMA_VERSION", "validate_rundir", "write_rundir"]

RUNDIR_SCHEMA_VERSION = 1

ARTIFACTS = (
    "meta.json",
    "metrics.json",
    "coordcost.json",
    "trace.jsonl",
    "spans.jsonl",
)

_META_REQUIRED = ("schema_version", "app", "strategy", "seed", "backend")
_COORDCOST_REQUIRED = (
    "schema_version",
    "messages_sent",
    "planes",
    "decisions",
    "coordination_share",
)


def _sanitize(value: Any) -> Any:
    """A JSON-able rendering: tuples to lists, sets sorted, rest repr'd."""
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_sanitize(item) for item in value), key=repr)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def write_rundir(directory: str | Path, outcome, telemetry=None) -> Path:
    """Archive one :class:`~repro.api.RunOutcome` as a run directory.

    ``telemetry`` defaults to the hub the outcome was run with
    (``outcome.telemetry``); its coordcost block lands in
    ``coordcost.json`` and its span tracker (when tracing) in
    ``spans.jsonl``.  Handed the
    :class:`~repro.net.services.SocketTimeout` of a socket run torn down
    at its wall-clock budget instead, it archives the partial outcome the
    exception carries — how far the run got — and marks ``meta.json``
    ``timed_out``.

    Collision-safe under concurrent writers: the artifacts are built in a
    private temporary directory and published with one atomic rename, so
    a reader never observes a half-written run directory.  When the
    target already holds a run (e.g. several pooled audit cells archiving
    under the same name), the directory lands under a unique ``-N``
    suffix instead of clobbering it — always check the *returned* path.
    """
    from repro.obs.coordcost import coordcost_report

    timed_out = isinstance(outcome, Exception)
    if timed_out:
        outcome = outcome.outcome
    target = Path(directory)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        path = Path(
            tempfile.mkdtemp(dir=target.parent, prefix=f".{target.name or 'run'}.")
        )
    except OSError as exc:
        raise ObsError(f"cannot write run directory {target}: {exc.strerror}") from exc
    hub = telemetry if telemetry is not None else outcome.telemetry
    cluster = outcome.cluster
    sim = getattr(cluster, "sim", None)

    meta = {
        "schema_version": RUNDIR_SCHEMA_VERSION,
        "app": outcome.app,
        "strategy": outcome.strategy,
        "seed": outcome.seed,
        "backend": outcome.backend,
        "transport": outcome.transport,
        "kernel": getattr(sim, "kernel", None),
        "events_fired": getattr(sim, "fired", None),
        "virtual_time": getattr(sim, "now", None),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "version": __version__,
    }
    if timed_out:
        meta["timed_out"] = True
    (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    metrics = _sanitize(dict(outcome.metrics))
    (path / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )

    coordcost = outcome.metrics.get("coordcost")
    if coordcost is None and hub is not None:
        # a timed-out partial run: no outcome block, only what the hub saw
        coordcost = coordcost_report(hub)
    (path / "coordcost.json").write_text(
        json.dumps(_sanitize(coordcost or {}), indent=2, sort_keys=True) + "\n"
    )

    trace = getattr(cluster, "trace", None)
    with (path / "trace.jsonl").open("w") as handle:
        if trace is not None:
            for time, source, event, data in trace._rows:
                handle.write(
                    json.dumps(
                        {
                            "t": time,
                            "source": source,
                            "event": event,
                            "data": _sanitize(data),
                        }
                    )
                    + "\n"
                )

    spans = getattr(hub, "spans", None)
    with (path / "spans.jsonl").open("w") as handle:
        if spans is not None:
            for row in spans.to_rows():
                handle.write(json.dumps(row) + "\n")

    # Publish atomically.  rename(2) succeeds over a missing or empty
    # target and fails with EEXIST/ENOTEMPTY over an occupied one, in
    # which case the next free ``-N`` sibling takes the run.
    os.chmod(path, 0o755)  # mkdtemp defaults to 0700
    candidate = target
    suffix = 2
    while True:
        try:
            os.rename(path, candidate)
            return candidate
        except OSError as exc:
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                shutil.rmtree(path, ignore_errors=True)
                raise ObsError(
                    f"cannot write run directory {candidate}: {exc.strerror}"
                ) from exc
            candidate = target.with_name(f"{target.name}-{suffix}")
            suffix += 1


def _load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path} is not valid JSON: {exc}") from exc


def validate_rundir(directory: str | Path) -> dict[str, Any]:
    """Check a run directory against the versioned schema.

    Raises :class:`~repro.errors.ObsError` on any missing artifact,
    schema-version mismatch, missing required field, or malformed line.
    Returns a summary: the parsed meta plus per-artifact row counts.
    """
    path = Path(directory)
    if not path.is_dir():
        raise ObsError(f"run directory {path} does not exist")
    for name in ARTIFACTS:
        if not (path / name).is_file():
            raise ObsError(f"run directory {path} is missing {name}")

    meta = _load_json(path / "meta.json")
    if not isinstance(meta, dict):
        raise ObsError(f"{path}/meta.json is not an object")
    for field in _META_REQUIRED:
        if field not in meta:
            raise ObsError(f"{path}/meta.json is missing {field!r}")
    if meta["schema_version"] != RUNDIR_SCHEMA_VERSION:
        raise ObsError(
            f"{path}/meta.json schema_version {meta['schema_version']!r} != "
            f"supported {RUNDIR_SCHEMA_VERSION}"
        )

    metrics = _load_json(path / "metrics.json")
    if not isinstance(metrics, dict):
        raise ObsError(f"{path}/metrics.json is not an object")

    coordcost = _load_json(path / "coordcost.json")
    if not isinstance(coordcost, dict):
        raise ObsError(f"{path}/coordcost.json is not an object")
    if coordcost:  # may legitimately be {} for a run without a hub
        for field in _COORDCOST_REQUIRED:
            if field not in coordcost:
                raise ObsError(f"{path}/coordcost.json is missing {field!r}")

    counts = {}
    for name, fields in (("trace.jsonl", ("t", "source", "event")),
                         ("spans.jsonl", ("t", "lineage", "event"))):
        rows = 0
        with (path / name).open() as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ObsError(f"{path}/{name}:{lineno}: {exc}") from exc
                for field in fields:
                    if field not in row:
                        raise ObsError(
                            f"{path}/{name}:{lineno} is missing {field!r}"
                        )
                rows += 1
        counts[name] = rows
    return {"meta": meta, "rows": counts, "coordcost": coordcost}
