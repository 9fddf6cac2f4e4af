"""A finished audit run is released, not left to the cyclic collector.

The two places a sweep drops a run — a campaign cell
(:func:`repro.chaos.campaign._cell_metrics`) and
:meth:`repro.chaos.harnesses.AppHarness.observe` — close it
(:meth:`repro.sim.network.Network.close`) once they have read what they
want.  With the collector off, no simulator, network or process of the
run may then be reachable: reference counting alone must free them.
A cycle left through any of them — a waker holding its own bound method,
a node and its runtime, an adapter and its node, a socket simulator and
its network — keeps the whole run alive and fails here.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.chaos.campaign import _cell_metrics
from repro.chaos.harnesses import harness_for
from repro.sim.network import Network

# every strategy of both Bloom apps (each installs a different input
# adapter), the Storm word count, and both substrates over TCP
SIM_CELLS = [
    ("adnet", "uncoordinated", "dup-burst"),
    ("adnet", "seal", "dup-burst"),
    ("adnet", "ordered", "reorder-burst"),
    ("kvs", "uncoordinated", "split-link"),
    ("kvs", "sealed", "split-link"),
    ("kvs", "ordered", "split-link"),
    ("wordcount", "sealed", "crash-restart"),
    ("wordcount", "eager", "loss-burst"),
]
SOCKET_CELLS = [
    ("kvs", "sealed", "baseline"),
    ("wordcount", "sealed", "baseline"),
]


@pytest.fixture
def run_objects(monkeypatch):
    """Weak references to every network, simulator and process the test's
    runs register, taken with the cyclic collector disabled."""
    refs: list[weakref.ref] = []
    register = Network.register

    def recording(self, process):
        refs.extend(weakref.ref(obj) for obj in (process, self, self.sim))
        return register(self, process)

    monkeypatch.setattr(Network, "register", recording)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def survivors(refs: list[weakref.ref]) -> list[str]:
    assert refs, "the run registered no process"
    return sorted({type(obj).__name__ for ref in refs if (obj := ref()) is not None})


def run_cell(app: str, strategy: str, schedule: str, backend: str) -> None:
    metrics = _cell_metrics(
        app=app, strategy=strategy, schedule=schedule, smoke=True, seeds=[7],
        backend=backend,
    )
    assert metrics["runs"] == 1 and metrics["events"] > 0


def run_observe(app: str, strategy: str, schedule: str, backend: str) -> None:
    harness = harness_for(app, smoke=True, backend=backend)
    observation = harness.observe(strategy, harness.schedule_named(schedule), 7)
    assert observation is not None


@pytest.mark.parametrize("app, strategy, schedule", SIM_CELLS)
def test_a_campaign_cell_frees_its_runs(run_objects, app, strategy, schedule):
    run_cell(app, strategy, schedule, "sim")
    assert survivors(run_objects) == []


@pytest.mark.parametrize("app, strategy, schedule", SIM_CELLS)
def test_an_observed_run_is_freed(run_objects, app, strategy, schedule):
    run_observe(app, strategy, schedule, "sim")
    assert survivors(run_objects) == []


@pytest.fixture
def fast_socket(monkeypatch):
    monkeypatch.setenv("BLAZES_NET_TIME_SCALE", "1.0")


@pytest.mark.parametrize("app, strategy, schedule", SOCKET_CELLS)
def test_a_socket_campaign_cell_frees_its_runs(
    fast_socket, run_objects, app, strategy, schedule
):
    run_cell(app, strategy, schedule, "socket")
    assert survivors(run_objects) == []


@pytest.mark.parametrize("app, strategy, schedule", SOCKET_CELLS)
def test_an_observed_socket_run_is_freed(
    fast_socket, run_objects, app, strategy, schedule
):
    run_observe(app, strategy, schedule, "socket")
    assert survivors(run_objects) == []
