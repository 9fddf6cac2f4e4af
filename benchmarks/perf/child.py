"""One workload inside its own fresh interpreter.

``run.py`` starts this module as ``python -m benchmarks.perf.child SPEC``
(``SPEC`` a JSON object) so every workload gets a clean ``ru_maxrss``
and no warm state from another workload.  The last line of standard
output is one JSON object: the raw samples, which ``run.py`` turns into
metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from benchmarks.perf.layers import DRIVERS, PER_LAYER
from benchmarks.perf.stats import Calibrator, Ops, Tracer, median, self_times, slowdown
from benchmarks.perf.workloads import WORKLOADS


# wall time of the calibration block on either side of a set-up
SETUP_BLOCK_S = 0.15


def _guard_cache_dir() -> None:
    """Abort before the program could read or write a cache that is not
    this run's private one (the repo's ``.blazes-cache/``)."""
    from repro.exec import default_cache_dir

    private = Path(os.environ["TMPDIR"]).resolve()
    cache = default_cache_dir().resolve()
    if private not in cache.parents:
        raise SystemExit(f"cell cache {cache} is outside the run's private directory {private}")


def _timed_passes(workload, ops: Ops, seconds: float, passes: int | None):
    """The closed loop: the next pass starts when the previous returned.

    Runs ``passes`` passes, or — when ``passes`` is ``None`` — until
    ``seconds`` have elapsed and the workload's minimum is reached.
    Returns, per pass, the wall and CPU seconds inside its operations
    and the host's slowdown while it ran (1.0 without a calibrator).
    """
    from repro.exec import content_digest

    walls: list[float] = []
    cpus: list[float] = []
    slowdowns: list[float] = []
    baseline: dict[str, str] | None = None
    started = time.perf_counter()
    while True:
        if passes is not None:
            if len(walls) >= passes:
                break
        elif len(walls) >= workload.min_passes and time.perf_counter() - started >= seconds:
            break
        workload.before_pass()
        gc.collect()
        ops.busy_s = ops.busy_cpu_s = 0.0
        cells = workload.run_pass(ops)
        ops.calibrate()
        walls.append(ops.busy_s)
        cpus.append(ops.busy_cpu_s)
        slowdowns.append(slowdown(ops.calibrator.drain()) if ops.calibrator else 1.0)
        if not workload.deterministic:
            continue
        digests = {name: content_digest(payload) for name, payload in cells}
        if baseline is None:
            baseline = digests
            continue
        for name, digest in digests.items():
            if baseline.setdefault(name, digest) != digest:
                ops.fail(name, "result digest differs between two passes")
    return walls, cpus, slowdowns, baseline


def _check_reference(workload, ops: Ops, baseline: dict[str, str] | None) -> None:
    from repro.exec import content_digest

    reference = workload.reference()
    if reference is None or baseline is None:
        return
    for name, payload in reference.items():
        if baseline.get(name) != content_digest(payload):
            ops.fail(name, "result differs from the serial uncached reference")


def _traced(workload, ops: Ops, seed: int, walls) -> tuple[dict[str, float], Tracer]:
    """The traced pass and the drivers of the layers it exercises."""
    tracer = Tracer(time.perf_counter)
    began = time.perf_counter()
    out = workload.traced_pass(tracer, ops)
    traced_s = (time.perf_counter() - began) / workload.traced_reps
    for layer in workload.drivers:
        out.update(tracer.call(f"driver.{layer}", "drivers", DRIVERS[layer], seed))
    out["trace.overhead_ratio"] = traced_s / median(walls)
    return out, tracer


def _measure(workload, spec: dict) -> dict:
    """Timed passes, then (traced runs) the per-layer pass, then the
    checks against a reference computed another way."""
    # the traced run reports raw layer times, so only end-to-end runs calibrate
    calibrate = workload.calibrated and not spec["trace"]
    ops = Ops(Calibrator() if calibrate else None)
    walls, cpus, slowdowns, baseline = _timed_passes(
        workload, ops, spec["seconds"], spec["passes"]
    )
    result: dict = {"rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec["trace"]:
        layer, tracer = _traced(workload, ops, spec["seed"], walls)
    _check_reference(workload, ops, baseline)
    if spec["trace"]:
        workload.derive(layer, walls, cpus)
        unknown = sorted(set(layer) - {name for name, _, _ in PER_LAYER})
        if unknown:
            raise SystemExit(f"metrics outside the per-layer registry: {unknown}")
        own = self_times(tracer.spans)
        result["per_layer"] = layer
        result["spans"] = [
            [span.id, span.name, span.start, span.end, span.parent, span.trace, own[span.id]]
            for span in tracer.spans
        ]
    result.update(
        walls=walls, cpus=cpus, slowdowns=slowdowns, attempted=ops.attempted, failed=ops.failed, reasons=ops.reasons
    )
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]()
    _guard_cache_dir()
    workload.setup(spec["seed"])
    result: dict = {"ready": time.time()}
    # host speed right after set-up; run.py holds the block from right before it
    after = Calibrator()
    after.block(SETUP_BLOCK_S)
    result["ready_chunks"] = after.samples
    try:
        if not spec["probe"]:
            result.update(_measure(workload, spec))
    finally:
        workload.teardown()
    # after teardown: a pool's workers have been waited for
    result["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
