"""CLI surface for the socket backend: run, timeout, audit guards."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _realtime_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("BLAZES_NET_TIME_SCALE", "1.0")
    monkeypatch.setenv("BLAZES_CACHE_DIR", str(tmp_path / "cell-cache"))


def test_run_socket_backend_smoke(capsys):
    assert main(["run", "kvs", "--backend", "socket", "--smoke",
                 "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transport"] == "socket"
    assert payload["metrics"]["transport"]["codec"] == "json"
    assert payload["metrics"]["transport"]["frames_sent"] > 0


def test_run_sim_backend_reports_transport(capsys):
    assert main(["run", "kvs", "--smoke", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transport"] == "sim"


def test_timeout_requires_socket_backend(capsys):
    assert main(["run", "kvs", "--smoke", "--timeout", "1"]) == 1
    assert "socket" in capsys.readouterr().err


def test_timeout_exits_five_with_partial_rundir(tmp_path, capsys):
    rundir = tmp_path / "runs"
    code = main([
        "run", "kvs", "--backend", "socket", "--smoke", "--seed", "7",
        "--timeout", "0.01", "--rundir", str(rundir),
    ])
    assert code == 5
    assert "wall-clock budget" in capsys.readouterr().err
    meta = json.loads((rundir / "meta.json").read_text())
    assert meta["timed_out"] is True
    assert meta["transport"] == "socket"


@pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
def test_a_socket_budget_that_is_not_positive_is_an_error(timeout, capsys):
    assert main(["run", "kvs", "--backend", "socket", "--smoke", "--timeout", timeout]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "timeout must be positive" in err


@pytest.mark.parametrize("scale", ["nan", "0", "-2"])
def test_a_time_scale_that_is_not_positive_is_an_error(scale, monkeypatch, capsys):
    monkeypatch.setenv("BLAZES_NET_TIME_SCALE", scale)
    assert main(["run", "kvs", "--backend", "socket", "--smoke"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "time_scale must be positive" in err


def test_an_app_run_checks_its_socket_budget_before_it_starts():
    from repro.api import get_app
    from repro.errors import SimulationError

    with pytest.raises(SimulationError, match="timeout must be positive"):
        get_app("kvs").run(smoke=True, backend="socket", timeout=float("nan"))


def test_malformed_time_scale_is_a_typed_error(monkeypatch, capsys):
    monkeypatch.setenv("BLAZES_NET_TIME_SCALE", "abc")
    assert main(["run", "kvs", "--backend", "socket", "--smoke"]) == 1
    err = capsys.readouterr().err
    assert "BLAZES_NET_TIME_SCALE='abc' is not a number" in err
    assert "Traceback" not in err


def test_audit_matrix_rejects_socket_backend(capsys):
    assert main(["audit", "--matrix", "--backend", "socket", "--smoke",
                 "--no-report"]) == 1
    assert "--matrix" in capsys.readouterr().err


def test_audit_socket_smoke_single_schedule(capsys, tmp_path):
    code = main([
        "audit", "--backend", "socket", "--smoke", "--apps", "kvs",
        "--schedules", "baseline", "--seeds", "7", "--no-report", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["campaign"] == "audit-smoke-socket"
    assert payload["cells"], "audit produced no cells"
    assert all(cell["sound"] for cell in payload["cells"])
    assert all(cell["params"]["backend"] == "socket"
               for cell in payload["cells"])
