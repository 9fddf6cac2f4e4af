"""JSON reporting: persist one benchmark run as ``BENCH_<name>.json``.

The output file is the benchmark's durable record: the scenario grid, the
metric values, wall-clock cost per scenario, and enough environment
metadata to interpret a regression later.  ``benchmarks/README.md``
documents where each figure script writes its file.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import BenchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.bench.runner import BenchReport

__all__ = ["JsonReporter", "default_output_dir"]

OUTPUT_DIR_ENV = "REPRO_BENCH_DIR"


def default_output_dir() -> Path:
    """Where ``BENCH_*.json`` files land: ``$REPRO_BENCH_DIR`` or the cwd."""
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


class JsonReporter:
    """Writes one ``BENCH_<name>.json`` per report into ``directory``."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_output_dir()

    def path_for(self, name: str) -> Path:
        return self.directory / f"BENCH_{name}.json"

    def write(self, report: "BenchReport") -> Path:
        from repro.net.context import net_config

        # which backend carried the cells ("sim"/"socket"), read off their
        # own params, and for socket cells the transport config
        params = report.results[0].params if report.results else {}
        config = net_config(params.get("backend"), params.get("timeout"))
        backend = "sim" if config is None else "socket"
        transport = None if config is None else config.to_dict()
        payload = {
            **report.to_dict(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
                "backend": backend,
                "transport": transport,
            },
        }
        path = self.path_for(report.name)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise BenchError(f"cannot write {path}: {exc.strerror}") from exc
        return path
