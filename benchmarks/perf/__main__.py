"""``PYTHONPATH=src python -m benchmarks.perf``: every workload, one record.

Runs the selected workloads one after another (each in its own fresh
interpreters, see ``run.py``), prints every metric by name with its
unit, and writes ``BENCH_perf.json`` — or, with ``--traced``, the
per-layer numbers and spans as ``BENCH_perf-trace.json`` — to
``$REPRO_BENCH_DIR`` or the working directory.  ``--check-repeat`` runs
two full sets of the same tree and ``--compare A B`` two saved records
through :mod:`benchmarks.perf.compare`.  Exits non-zero when an
operation failed or a comparison is not ``ok`` everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.perf.compare import compare, render
from benchmarks.perf.run import ROOT, RUN_SECONDS, run_workload
from benchmarks.perf.workloads import WORKLOADS


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "run_seconds": RUN_SECONDS,
    }


def run_set(names, *, seed: int, passes: int | None, modes: tuple[bool, ...]) -> dict:
    """Run each workload in each mode (``False`` end to end, ``True``
    traced) and print its metrics as it finishes."""
    record = {"benchmark": "perf", "seed": seed, "env": environment(), "workloads": {}}
    for name in names:
        entry: dict = {"attempted": 0, "failed": 0, "reasons": []}
        for traced in modes:
            result = run_workload(name, seed=seed, trace=traced, passes=passes)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["reasons"] += result["reasons"]
            if traced:
                entry["per_layer"] = result["metrics"]
                entry["spans"] = result["spans"]
            else:
                entry["end_to_end"] = result["metrics"]
                entry["passes"] = result["passes"]
                entry["host_slowdown"] = result["host_slowdown"]
            print_metrics(name, result, traced)
        entry["failed_ops_share"] = entry["failed"] / entry["attempted"]
        record["workloads"][name] = entry
    return record


def print_metrics(name: str, result: dict, traced: bool) -> None:
    print(
        f"{name}: passes={result['passes']} ops_attempted={result['attempted']} "
        f"failed_ops_share={result['failed'] / result['attempted']:.4f}"
        + ("" if traced else f" host_slowdown={result['host_slowdown']:.3f}")
    )
    for reason in result["reasons"]:
        print(f"  failed operation: {reason}")
    for metric, value in result["metrics"].items():
        if traced and not value["value"]:
            continue  # a layer this workload does not exercise
        line = f"  {metric:<42} {value['value']:>14.6g} {value['unit']}"
        if "q1" in value:
            line += f"   q1={value['q1']:.6g} q3={value['q3']:.6g} n={value['n']}"
        print(line)
    sys.stdout.flush()


def write(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--passes", type=int, help="timed passes per workload (default: by time)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", action="store_true", help="the per-layer run")
    parser.add_argument("--out", type=Path, help="where to write the record")
    parser.add_argument("--check-repeat", action="store_true", help="two sets of the same tree")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    bench_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))

    if args.compare:
        base, other = (json.loads(path.read_text()) for path in args.compare)
        rows = compare(base, other)
    elif args.check_repeat:
        sets = [
            run_set(args.workload, seed=args.seed, passes=args.passes, modes=(False, True))
            for _ in range(2)
        ]
        write(sets[0], args.out or bench_dir / "BENCH_perf.json")
        write(sets[1], bench_dir / "BENCH_perf-repeat.json")
        rows = compare(*sets)
    else:
        record = run_set(
            args.workload, seed=args.seed, passes=args.passes, modes=(args.traced,)
        )
        default = "BENCH_perf-trace.json" if args.traced else "BENCH_perf.json"
        write(record, args.out or bench_dir / default)
        return 1 if any(entry["failed"] for entry in record["workloads"].values()) else 0

    print(render(rows))
    return 0 if all(row.verdict == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
