"""Run directories: write/validate roundtrip and schema enforcement."""

from __future__ import annotations

import json
import re

import pytest

from repro.api import get_app
from repro.errors import ObsError
from repro.obs.rundir import ARTIFACTS, RUNDIR_SCHEMA_VERSION, validate_rundir, write_rundir
from repro.obs.telemetry import Telemetry


@pytest.fixture(scope="module")
def sealed_outcome():
    return get_app("adnet").run("seal", seed=1, smoke=True, telemetry=Telemetry(spans=True))


def test_write_validate_roundtrip(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    rundir = write_rundir(tmp_path / "run", outcome)
    assert sorted(p.name for p in rundir.iterdir()) == sorted(ARTIFACTS)
    info = validate_rundir(rundir)
    assert info["meta"]["app"] == "adnet"
    assert info["meta"]["strategy"] == "seal"
    assert info["meta"]["schema_version"] == RUNDIR_SCHEMA_VERSION
    assert info["rows"]["trace.jsonl"] > 0
    assert info["rows"]["spans.jsonl"] > 0
    assert info["coordcost"]["coordination_share"] > 0.0
    # every artifact is strict JSON
    for name in ("meta.json", "metrics.json", "coordcost.json"):
        json.loads((rundir / name).read_text())


@pytest.mark.parametrize("under", ["", "sub/run"])
def test_a_location_that_cannot_hold_a_run_is_an_obs_error(tmp_path, sealed_outcome, under):
    """An existing file, or a path below one, names itself in the error
    and leaves no private temporary directory behind."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    target = blocker / under if under else blocker
    with pytest.raises(ObsError, match=re.escape(f"cannot write run directory {target}")):
        write_rundir(target, sealed_outcome)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


def test_missing_artifact_is_rejected(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    rundir = write_rundir(tmp_path / "run", outcome)
    (rundir / "coordcost.json").unlink()
    with pytest.raises(ObsError, match="missing coordcost.json"):
        validate_rundir(rundir)


def test_schema_version_mismatch_is_rejected(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    rundir = write_rundir(tmp_path / "run", outcome)
    meta = json.loads((rundir / "meta.json").read_text())
    meta["schema_version"] = 99
    (rundir / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ObsError, match="schema_version"):
        validate_rundir(rundir)


def test_missing_meta_field_is_rejected(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    rundir = write_rundir(tmp_path / "run", outcome)
    meta = json.loads((rundir / "meta.json").read_text())
    del meta["strategy"]
    (rundir / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ObsError, match="strategy"):
        validate_rundir(rundir)


def test_malformed_jsonl_line_is_rejected(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    rundir = write_rundir(tmp_path / "run", outcome)
    with (rundir / "trace.jsonl").open("a") as handle:
        handle.write("not json\n")
    with pytest.raises(ObsError, match="trace.jsonl"):
        validate_rundir(rundir)


# one corruption per check: (artifact, its new text, the error it names);
# a blank .jsonl line is skipped, so each bad row below is on line 2
CORRUPTIONS = [
    ("meta.json", "{not json", "meta.json is not valid JSON"),
    ("meta.json", "[]", "meta.json is not an object"),
    ("metrics.json", '"done"', "metrics.json is not an object"),
    ("coordcost.json", "[]", "coordcost.json is not an object"),
    ("coordcost.json", '{"schema_version": 1}', "coordcost.json is missing 'messages_sent'"),
    ("spans.jsonl", "\nnot json\n", "spans.jsonl:2: "),
    ("trace.jsonl", '\n{"t": 0.0, "source": "a"}\n', "trace.jsonl:2 is missing 'event'"),
]


@pytest.mark.parametrize(
    "artifact,text,error", CORRUPTIONS, ids=[error for _, _, error in CORRUPTIONS]
)
def test_each_corrupt_artifact_is_rejected(tmp_path, sealed_outcome, artifact, text, error):
    rundir = write_rundir(tmp_path / "run", sealed_outcome)
    (rundir / artifact).write_text(text)
    with pytest.raises(ObsError, match=re.escape(error)):
        validate_rundir(rundir)


def test_nonexistent_directory_is_rejected(tmp_path):
    with pytest.raises(ObsError, match="does not exist"):
        validate_rundir(tmp_path / "nope")


def test_rundir_collision_lands_on_suffixed_sibling(tmp_path, sealed_outcome):
    outcome = sealed_outcome
    first = write_rundir(tmp_path / "run", outcome)
    second = write_rundir(tmp_path / "run", outcome)
    third = write_rundir(tmp_path / "run", outcome)
    assert first == tmp_path / "run"
    assert second == tmp_path / "run-2"
    assert third == tmp_path / "run-3"
    for rundir in (first, second, third):
        validate_rundir(rundir)


def test_rundir_concurrent_writers_never_collide(tmp_path, sealed_outcome):
    """The pooled-audit regression: many writers, one target name.

    Every writer must come back with its own fully-formed directory —
    no clobbered artifacts, no half-published runs, no lost writers.
    """
    from concurrent.futures import ThreadPoolExecutor

    outcome = sealed_outcome
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(write_rundir, tmp_path / "run", outcome)
            for _ in range(8)
        ]
        paths = [future.result() for future in futures]
    assert len(set(paths)) == 8  # every writer got a distinct directory
    for rundir in paths:
        info = validate_rundir(rundir)
        assert info["meta"]["app"] == "adnet"
    # no temp build directories leak into the parent
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert leftovers == []


def test_rundir_without_hub_still_validates(tmp_path):
    outcome = get_app("wordcount").run("eager", seed=1, smoke=True)
    rundir = write_rundir(tmp_path / "plain", outcome)
    info = validate_rundir(rundir)
    assert info["coordcost"] == {}  # no hub: legitimately empty
    assert info["rows"]["spans.jsonl"] == 0
    assert info["rows"]["trace.jsonl"] > 0
