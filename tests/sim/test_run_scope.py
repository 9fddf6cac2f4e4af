"""One run scope: the hub and the transport a run reports to and runs on.

``run_scope`` sets one context variable; ``make_simulator`` reads it when
a cluster builds its kernel, and ``BlazesApp.run`` sets it to exactly its
own arguments, so an enclosing scope never leaks into a run.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.api import get_app
from repro.net.context import NetConfig
from repro.net.services import NetSimulator
from repro.obs.telemetry import Telemetry
from repro.sim import make_simulator, run_scope

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_one_context_variable_carries_a_run():
    """``src`` declares one context variable, and besides ``run_scope`` only
    ``make_simulator`` and the seal buffer read it."""
    texts = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert [name for name, text in texts.items() if "ContextVar(" in text] == ["sim/events.py"]
    readers = [name for name, text in texts.items() if "RUN_SCOPE" in text]
    assert readers == ["coord/sealing.py", "sim/events.py"]


def test_scope_is_empty_by_default_nests_and_restores():
    outer, inner = Telemetry(), Telemetry()
    assert make_simulator().telemetry is None
    with run_scope(outer):
        assert make_simulator().telemetry is outer
        with run_scope(inner):
            assert make_simulator().telemetry is inner
        with run_scope():
            assert make_simulator().telemetry is None
        assert make_simulator().telemetry is outer
    # attachment is by reference at build time, not re-resolved later
    assert make_simulator().telemetry is None


def test_scope_survives_exceptions():
    try:
        with run_scope(Telemetry()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert make_simulator().telemetry is None


def test_profiler_rides_the_hub_onto_the_simulator():
    profiler_marker = object()
    with run_scope(Telemetry(profiler=profiler_marker)):
        sim = make_simulator()
    assert sim.profiler is profiler_marker


def test_scope_with_a_net_config_builds_the_socket_kernel():
    with run_scope(None, NetConfig(time_scale=0.5)):
        assert isinstance(make_simulator(seed=1), NetSimulator)
    assert not isinstance(make_simulator(seed=1), NetSimulator)


def test_enclosing_socket_scope_does_not_leak_into_a_run():
    with run_scope(None, NetConfig(time_scale=0.5)):
        outcome = get_app("kvs").run(smoke=True, seed=7)
    assert outcome.transport == "sim"
    assert type(outcome.cluster.sim) is not NetSimulator
    assert "transport" not in outcome.metrics


def test_enclosing_hub_scope_does_not_leak_into_a_run():
    app, outer, own = get_app("kvs"), Telemetry(), Telemetry()
    with run_scope(outer):
        plain = app.run(smoke=True, seed=7)
        instrumented = app.run(smoke=True, seed=7, telemetry=own)
    assert plain.telemetry is None and "coordcost" not in plain.metrics
    assert instrumented.metrics["coordcost"]["messages_sent"] > 0
    assert not any(outer.tallies().values())


def test_each_thread_sees_its_own_scope():
    # the second thread scopes its hub while the first thread's scope is
    # open, and both scopes stay open until both simulators are built
    hubs = {"first": Telemetry(), "second": Telemetry()}
    built = {}
    first_scoped, second_scoped, first_built = (threading.Event() for _ in range(3))

    def first():
        with run_scope(hubs["first"]):
            first_scoped.set()
            second_scoped.wait(timeout=10)
            built["first"] = make_simulator().telemetry
            first_built.set()

    def second():
        first_scoped.wait(timeout=10)
        with run_scope(hubs["second"]):
            second_scoped.set()
            built["second"] = make_simulator().telemetry
            first_built.wait(timeout=10)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert built == hubs
