"""The benchmark's entry point: one workload per invocation.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (the command ``BENCHMARK.json`` names) measures one
workload and prints, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits non-zero when an operation failed
(after printing) or when the program under test is missing.

The workload runs in fresh child interpreters with a scrubbed
environment; everything they write lands in a private directory under
the checkout that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.layers import END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.perf.child import SETUP_BLOCK_S  # noqa: E402
from benchmarks.perf.stats import Calibrator, median, slowdown, summary  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

# how long one run measures (BENCHMARK.json's run_seconds)
RUN_SECONDS = 15
# fresh-interpreter set-ups one end-to-end run takes its setup_s median over
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
SCRATCH = ROOT / ".perf-tmp"

# Settings that would make a run measure something other than the
# program's defaults.
SCRUBBED = (
    "BLAZES_JOBS",
    "BLAZES_BACKEND",
    "BLAZES_POOL_START",
    "BLAZES_CACHE_DIR",
    "REPRO_SIM_KERNEL",
    "REPRO_BLOOM_ENGINE",
    "REPRO_BENCH_DIR",
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(private: Path) -> dict[str, str]:
    """The environment every child runs in: program defaults only, a
    private cache and temp directory, a fixed hash seed."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED and not key.startswith("BLAZES_NET_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env["BLAZES_CACHE_DIR"] = str(private / "blazes-cache")
    env["TMPDIR"] = str(private)
    return env


def _run_child(spec: dict, private: Path) -> tuple[dict, float]:
    """Start one child, wait for it, return its result and its set-up
    time: spawn to ready, at the reference host's undisturbed speed."""
    before = Calibrator()
    before.block(SETUP_BLOCK_S)
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(spec)],
        cwd=private,
        env=child_env(private),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # the child leads its own session: stop it and any pool worker it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"child for {spec['workload']!r} exited with {proc.returncode}")
    child = json.loads(stdout.strip().splitlines()[-1])
    setup_s = (child["ready"] - spawned) / slowdown(before.samples + child["ready_chunks"])
    return child, setup_s


def _repo_cache_state() -> list:
    return [
        (str(path), path.stat().st_mtime_ns if path.exists() else None)
        for path in (ROOT / ".blazes-cache", Path.cwd() / ".blazes-cache")
    ]


def run_workload(
    name: str,
    *,
    seed: int = 7,
    seconds: float = RUN_SECONDS,
    trace: bool = False,
    passes: int | None = None,
) -> dict:
    """Measure one workload; returns its result record.

    ``metrics`` maps each metric name to ``value``/``unit`` (plus
    ``q1``/``q3``/``n`` for sampled end-to-end metrics).  A traced run
    also carries the ``spans`` recorded around the calls into each layer.
    """
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    SCRATCH.mkdir(exist_ok=True)
    private = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    cache_before = _repo_cache_state()
    spec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "trace": trace,
        "probe": False,
    }
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_child({**spec, "probe": True}, private)[1])
        child, setup_s = _run_child(spec, private)
        setups.append(setup_s)
    finally:
        shutil.rmtree(private, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's private directory is still there
    if _repo_cache_state() != cache_before:
        raise BenchmarkError("the repo's .blazes-cache/ changed during the run")

    result = {
        "workload": name,
        "seed": seed,
        "passes": len(child["walls"]),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "reasons": child["reasons"],
        "correct": child["failed"] == 0 and child["attempted"] > 0,
    }
    if trace:
        layer = child["per_layer"]
        result["metrics"] = {
            metric: {"value": layer.get(metric, 0), "unit": unit}
            for metric, unit, _ in PER_LAYER
        }
        result["spans"] = child["spans"]
    else:
        units = {metric: unit for metric, unit, _, _ in END_TO_END}
        rss_kb = child["rss_self_kb"] + child["rss_children_kb"]
        walls = [wall / slow for wall, slow in zip(child["walls"], child["slowdowns"])]
        result["host_slowdown"] = median(child["slowdowns"])
        result["metrics"] = {
            "wall_s": {**summary(walls), "unit": units["wall_s"]},
            "setup_s": {**summary(setups), "unit": units["setup_s"]},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": units["peak_rss_mb"]},
        }
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for reason in result["reasons"]:
        print(f"failed operation: {reason}", file=sys.stderr)
    print(
        f"{args.workload}: {result['passes']} passes, seed {args.seed}"
        + ("" if args.trace else f", host slowdown {result['host_slowdown']:.3f}")
    )
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
