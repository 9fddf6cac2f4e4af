"""Golden outputs of the ``blazes`` CLI.

Each golden pins one invocation's exit code, stdout and stderr — the
sweep verbs the rest of tier-1 never enters (``audit --search``,
``frontier``, ``audit --matrix``) and the text forms of the run verbs —
with wall-clock readings and temporary paths scrubbed, so a refactor of
``repro.cli`` runs under a net.  The parser itself — every verb's flags,
defaults, types, choices and help strings — is a section of the
settable-surface manifest (``tests/goldens/surface.txt``).

Regenerate after an *intended* change and review the diff::

    REPRO_REGEN_DIGESTS=1 python -m pytest tests/test_cli_goldens.py
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDENS = Path(__file__).parent / "goldens" / "cli"
REGEN = os.environ.get("REPRO_REGEN_DIGESTS") == "1"

_SEARCH = [
    "audit", "--search", "--smoke", "--apps", "wordcount",
    "--candidates", "2", "--budget", "8", "--no-cache",
]
_FRONTIER = [
    "frontier", "--smoke", "--apps", "kvs", "--steps", "2", "--no-cache",
    "--no-report",
]
_MATRIX = ["audit", "--matrix", "--smoke", "--no-cache", "--no-report"]
_AUDIT = ["audit", "--smoke", "--apps", "wordcount", "--seeds", "7"]

# name -> (argv, exit code); "{tmp}" in an argument is the test's tmp_path
INVOCATIONS = {
    "search-json": (_SEARCH + ["--no-report", "--json"], 0),
    "search-text": (_SEARCH, 0),
    # every app at the default --candidates/--budget: the composite cells
    # (q-poor and q-campaign at x0.2 among them) the one-app goldens miss
    "search-all-json": (
        ["audit", "--search", "--smoke", "--no-cache", "--no-report", "--json"], 0
    ),
    "frontier-text": (_FRONTIER, 0),
    "frontier-json": (_FRONTIER + ["--json"], 0),
    "matrix-json": (_MATRIX + ["--json"], 0),
    "matrix-text": (_MATRIX, 0),
    "audit-text": (_AUDIT + ["--no-cache"], 0),
    # every app's evidence lines: kvs's replica pairs, wordcount's store,
    # and the unexpected/missing counts only the truth functions produce
    "audit-json": (
        ["audit", "--smoke", "--no-cache", "--no-report", "--json"], 0
    ),
    "run-text": (["run", "wordcount", "--smoke"], 0),
    "run-rundir-text": (
        ["run", "adnet", "--strategy", "seal", "--smoke", "--rundir", "{tmp}/run"],
        0,
    ),
    "stats-text": (["stats", "kvs", "--smoke"], 0),
    # the coordcost ledger: seal votes and releases, registry lookups, zk
    # reads, the sequencer, txn traffic, punctuation and batch commits
    "stats-adnet-json": (["stats", "adnet", "--smoke", "--json"], 0),
    "stats-wordcount-json": (["stats", "wordcount", "--smoke", "--json"], 0),
    "trace-id-text": (
        ["trace", "wordcount", "--smoke", "--id", "batch:1", "--limit", "8"],
        0,
    ),
}

_TIMING_KEYS = {"wall_seconds", "cpu_seconds"}


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("BLAZES_CACHE_DIR", str(tmp_path / "cell-cache"))
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))


def _without_timing(value):
    if isinstance(value, dict):
        return {
            key: _without_timing(item)
            for key, item in value.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


def _scrub(text: str, tmp_path: Path) -> str:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        pass
    else:
        return json.dumps(_without_timing(payload), indent=2) + "\n"
    text = text.replace(str(tmp_path), "<tmp>")
    text = re.sub(r"\b\d+\.\d\ds\b", "<t>s", text)  # engine / search-cache lines
    text = re.sub(r"(?m) +\d+\.\d\d$", " <t>", text)  # the wall(s) column
    return re.sub(r"(?m)^(size +: )[\d,]+ bytes$", r"\1<n> bytes", text)


def _check(name: str, rendered: str) -> None:
    path = GOLDENS / f"{name}.txt"
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), f"{path} is missing; regenerate with REPRO_REGEN_DIGESTS=1"
    assert rendered == path.read_text(), (
        f"`blazes {name}` output moved; if intended, regenerate with "
        f"REPRO_REGEN_DIGESTS=1 and review the diff"
    )


def _invoke(argv, tmp_path, capsys) -> str:
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    return (
        f"exit: {code}\n--- stdout\n{_scrub(captured.out, tmp_path)}"
        f"--- stderr\n{_scrub(captured.err, tmp_path)}"
    )


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    argv, code = INVOCATIONS[name]
    rendered = _invoke(argv, tmp_path, capsys)
    assert rendered.startswith(f"exit: {code}\n"), rendered[:400]
    _check(name, rendered)


def test_cache_stats_text_is_pinned(tmp_path, capsys):
    assert main(_AUDIT + ["--no-report", "--json"]) == 0
    assert main(_AUDIT + ["--no-report", "--json"]) == 0  # all hits
    capsys.readouterr()
    _check("cache-stats-text", _invoke(["cache", "stats"], tmp_path, capsys))
