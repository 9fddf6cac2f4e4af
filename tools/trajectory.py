"""The performance trajectory: one measured row per commit, kept in
``PERF_TRAJECTORY.jsonl`` at the repository root::

    python tools/trajectory.py                        # measure this checkout, append its row
    python tools/trajectory.py --checkout DIR         # measure another checkout (e.g. a parent)
    python tools/trajectory.py --check                # recompute HEAD's count columns

A row holds, for the checkout it measures:

* ``end_to_end``: each gated workload's ``wall_s``, ``setup_s`` and
  ``peak_rss_mb`` from one run of the ``BENCHMARK.json`` command at its
  ``run_seconds`` (``wall_s`` is host-calibrated by the benchmark);
* ``counts``: the ``unit: count`` metrics from one ``--trace 1`` run of
  each gated workload;
* ``lines``: physical lines of the ``*.py`` files under ``src/`` and
  ``tests/``;
* ``surface``: the two counts ``tools/surface.py`` prints;
* ``tier1``: how many tier-1 tests passed and failed.

A row is keyed on ``source``, the sha256 of the files its numbers depend
on (``src/``, ``tests/``, ``tools/``, ``benchmarks/`` and
``BENCHMARK.json``), so the row for a change can be written before its
commit exists; ``commit`` names the commit it was measured at and
``edited`` whether those files differed from it.  Measuring a checkout
whose source already has a row replaces that row.  ``--check`` finds the
row of this checkout's source, recomputes its count columns (``counts``,
``lines``, ``surface``, ``tier1``) and exits 1 on any mismatch; the timed
columns are readings, not facts, and are not compared.

Like ``tools/pairs.py`` it runs the benchmark as a subprocess; it imports
nothing from ``benchmarks/perf`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # run as a script: make ``tools`` importable
    sys.path.insert(0, str(ROOT))

from tools.pairs import run_benchmark  # noqa: E402

LEDGER = ROOT / "PERF_TRAJECTORY.jsonl"
SEED = 7
SOURCE = ("src", "tests", "tools", "benchmarks", "BENCHMARK.json")
# what running the checkout leaves beside its files (.gitignore lists them)
LEFT_BEHIND = {"__pycache__", ".pytest_cache", ".hypothesis"}
COUNT_COLUMNS = ("counts", "lines", "surface", "tier1")


def source_digest(checkout: Path) -> str:
    """sha256 over the path and bytes of every file the row depends on."""
    digest = hashlib.sha256()
    for top in SOURCE:
        path = checkout / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and not LEFT_BEHIND.intersection(p.relative_to(checkout).parts)
        )
        for file in files:
            digest.update(file.relative_to(checkout).as_posix().encode() + b"\0")
            digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()


def _git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(
        ["git", *args], cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def physical_lines(checkout: Path, top: str) -> int:
    """Lines of the ``*.py`` files under ``top``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / top).rglob("*.py"))


def surface_counts(checkout: Path) -> dict[str, int]:
    """The two header counts ``tools/surface.py`` prints."""
    done = subprocess.run(
        [sys.executable, "tools/surface.py"], cwd=checkout, stdout=subprocess.PIPE, text=True, check=True
    )
    headers = [line.rsplit(": ", 1) for line in done.stdout.splitlines() if not line.startswith(" ")]
    return {title: int(count) for title, count in headers}


def tier1(checkout: Path) -> dict[str, int]:
    """Run the tier-1 suite (ROADMAP.md's command); passed and failed counts."""
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )
    summary = done.stdout.strip().splitlines()[-1]
    return {
        outcome: int(match.group(1)) if match else 0
        for outcome in ("passed", "failed")
        for match in [re.search(rf"(\d+) {outcome}", summary)]
    }


def count_columns(checkout: Path, spec: dict) -> dict:
    """The columns a rerun must reproduce exactly."""
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"tracing {workload}", file=sys.stderr, flush=True)
        metrics = run_benchmark(
            checkout, spec["command"], workload=workload, seed=SEED, seconds=1, trace=1
        )
        counts[workload] = {name: metrics[name]["value"] for name in names}
    print("running tier-1", file=sys.stderr, flush=True)
    return {
        "counts": counts,
        "lines": {top: physical_lines(checkout, top) for top in ("src", "tests")},
        "surface": surface_counts(checkout),
        "tier1": tier1(checkout),
    }


def measure(checkout: Path, spec: dict) -> dict:
    """One trajectory row for ``checkout``."""
    end_to_end = {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"timing {workload}", file=sys.stderr, flush=True)
        metrics = run_benchmark(
            checkout, spec["command"],
            workload=workload, seed=SEED, seconds=spec["run_seconds"], trace=0,
        )
        end_to_end[workload] = {m["name"]: metrics[m["name"]]["value"] for m in spec["end_to_end"]}
    status = _git(checkout, "status", "--porcelain", "--", *SOURCE)
    return {
        "source": source_digest(checkout),
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "edited": bool(status),
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "end_to_end": end_to_end,
        **count_columns(checkout, spec),
    }


def read_rows() -> list[dict]:
    if not LEDGER.exists():
        return []
    return [json.loads(line) for line in LEDGER.read_text().splitlines() if line.strip()]


def mismatches(row: dict, fresh: dict) -> list[str]:
    """One line per count column whose recomputed value differs."""
    return [
        f"  {column}: recorded {row.get(column)} recomputed {fresh[column]}"
        for column in COUNT_COLUMNS
        if row.get(column) != fresh[column]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--check", action="store_true", help="recompute the count columns")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    rows = read_rows()
    if args.check:
        source = source_digest(checkout)
        row = next((r for r in rows if r["source"] == source), None)
        if row is None:
            print(f"no row in {LEDGER.name} for source {source[:12]}", file=sys.stderr)
            return 1
        wrong = mismatches(row, count_columns(checkout, spec))
        print("\n".join(wrong) or f"every count column of row {source[:12]} reproduced")
        return 1 if wrong else 0
    row = measure(checkout, spec)
    rows = [r for r in rows if r["source"] != row["source"]] + [row]
    LEDGER.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    print(json.dumps(row, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
