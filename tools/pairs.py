"""Alternating parent/change pairs of the ``BENCHMARK.json`` command.

The measuring protocol of ``choosing-metrics`` section 8, as one command
instead of a shell loop written afresh for every perf PR::

    python tools/pairs.py --parent HEAD~1 --workload adnet-paper --seed 31
    python tools/pairs.py --parent-dir /root/scratch/parent --workload adnet-paper \\
        --seed 31 --pairs 10 --seconds 15 --counts

The two sides are two checkouts: ``--change-dir`` (default: this
repository as it stands, uncommitted edits included) and either
``--parent-dir`` or ``--parent REV``, which exports that revision's
committed files with ``git archive`` into a temporary directory (the same
files a ``git worktree`` would hold, with nothing registered in ``.git``)
and removes it afterwards.  Each pair runs the command ``BENCHMARK.json``
names once per side, in that side's directory, and which side goes first
alternates from pair to pair.  It prints every pair and, for ``--metric``
and then each other end-to-end metric, each side's median and quartiles,
the win count, and whether the medians differ by more than the parent's
inter-quartile distance.  ``--counts`` adds one ``--trace 1``
run per side and lists every ``unit: count`` metric (names read from
``BENCHMARK.json``) whose value differs — a change that claims a speed-up
must leave all of them alone.

It runs the benchmark as the driver does, as a subprocess; it imports
nothing from ``benchmarks/perf`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(checkout: Path, command: list[str], **options) -> dict:
    """One run of the benchmark command in ``checkout``; its contract line."""
    argv = command + [f"--{key}={value}" for key, value in options.items()]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} printed nothing")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} in {checkout} failed: {lines[-1]}")
    return result["metrics"]


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``, the driver's)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> str:
    """The section-8 rule over the pairs run so far."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_mid, p_q1, p_q3 = spread(parent)
    c_mid, c_q1, c_q3 = spread(change)
    apart = abs(p_mid - c_mid) > p_q3 - p_q1
    return (
        f"parent median {p_mid:.4g} (q1 {p_q1:.4g}, q3 {p_q3:.4g})\n"
        f"change median {c_mid:.4g} (q1 {c_q1:.4g}, q3 {c_q3:.4g}), "
        f"{(c_mid / p_mid - 1) * 100:+.1f} % of the parent's\n"
        f"change wins {wins} of {len(parent)} pairs ({ties} ties); the medians "
        f"differ by {'more' if apart else 'NO more'} than the parent's "
        f"inter-quartile distance {p_q3 - p_q1:.4g}"
    )


def differing_counts(spec: dict, parent: dict, change: dict) -> list[str]:
    """One line per ``unit: count`` metric that is not identical."""
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    return [
        f"  {name}: parent {parent[name]['value']} change {change[name]['value']}"
        for name in names
        if parent[name]["value"] != change[name]["value"]
    ] or [f"  all {len(names)} count metrics identical"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", metavar="REV", help="export this revision as the parent")
    side.add_argument("--parent-dir", type=Path, help="an existing parent checkout")
    parser.add_argument("--change-dir", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--metric", default="wall_s", help="the claimed end-to-end metric")
    parser.add_argument("--counts", action="store_true", help="compare the count metrics too")
    args = parser.parse_args(argv)

    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric must be one of {', '.join(better)}")
    seconds = args.seconds or spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as export:
        parent_dir = args.parent_dir
        if parent_dir is None:
            parent_dir = Path(export)
            archive = subprocess.run(
                ["git", "archive", args.parent], cwd=ROOT, stdout=subprocess.PIPE, check=True
            )
            subprocess.run(["tar", "-x", "-C", export], input=archive.stdout, check=True)
        sides = {"parent": parent_dir, "change": args.change_dir}
        samples: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                samples[name].append(
                    run_benchmark(
                        sides[name], spec["command"],
                        workload=args.workload, seed=args.seed, seconds=seconds, trace=0,
                    )
                )
            print(
                f"pair {pair + 1:2d} ({order[0]} first): "
                + "; ".join(
                    f"{metric} parent {samples['parent'][-1][metric]['value']:.4g} "
                    f"change {samples['change'][-1][metric]['value']:.4g}"
                    for metric in better
                ),
                flush=True,
            )
        # the claimed metric first, then the ones that must stay in bounds
        for metric in sorted(better, key=lambda name: name != args.metric):
            print(f"{args.workload} {metric}, seed {args.seed}, {seconds:g} s runs")
            columns = [[run[metric]["value"] for run in samples[name]] for name in sides]
            print(verdict(*columns, better[metric] == "lower"))
        if args.counts:
            traced = {
                name: run_benchmark(
                    checkout, spec["command"],
                    workload=args.workload, seed=args.seed, seconds=seconds, trace=1,
                )
                for name, checkout in sides.items()
            }
            print("count metrics (one --trace 1 run per side):")
            print("\n".join(differing_counts(spec, traced["parent"], traced["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
