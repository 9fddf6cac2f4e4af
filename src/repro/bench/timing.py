"""Wall-clock timing for the benchmark harness.

Simulated (virtual) time lives inside :mod:`repro.sim`; this module
measures real wall-clock cost of running a scenario, which is what the
harness records so regressions in simulator overhead are visible across
runs of the same ``BENCH_*.json``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any

__all__ = ["timed_detail"]


def timed_detail(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[Any, float, float]:
    """Call ``fn`` and return ``(result, wall_seconds, cpu_seconds)``.

    ``cpu_seconds`` is this process's CPU time (``time.process_time``):
    on a loaded or oversubscribed machine it separates "the cell got
    slower" from "the cell got less CPU", which wall clock alone cannot.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    result = fn(*args, **kwargs)
    return (
        result,
        time.perf_counter() - wall_start,
        time.process_time() - cpu_start,
    )
