"""Unit tests for the kernel profiling layer."""

from __future__ import annotations

import pytest

from repro.sim import LatencyModel, Network, Process, SimProfiler, Simulator
from tests.reference import events_ref


class Echo(Process):
    def recv(self, msg):
        pass


def _ping(n: int) -> None:
    pass


@pytest.mark.parametrize(
    "sim_cls", (Simulator, events_ref.Simulator), ids=("fast", "ref")
)
class TestProfilerOnBothKernels:
    def test_counts_fired_events_by_qualname(self, sim_cls):
        sim = sim_cls()
        profiler = SimProfiler()
        with profiler.observe(sim):
            for i in range(5):
                sim.post(0.1 * (i + 1), _ping, i)
            sim.run()
        assert profiler.events == 5
        assert profiler.kinds["_ping"] == 5
        assert profiler.events_per_second > 0
        assert profiler.wall_seconds > 0

    def test_heap_watermark_tracks_peak_depth(self, sim_cls):
        sim = sim_cls()
        profiler = SimProfiler()
        with profiler.observe(sim):
            for i in range(10):
                sim.post(0.1 * (i + 1), _ping, i)
            sim.run()
        assert profiler.heap_watermark >= 9

    def test_detached_runs_are_not_counted(self, sim_cls):
        sim = sim_cls()
        profiler = SimProfiler()
        sim.post(0.1, _ping, 0)
        sim.run()  # not observed
        with profiler.observe(sim):
            sim.post(0.1, _ping, 1)
            sim.run()
        assert profiler.events == 1

    def test_observe_restores_previous_profiler(self, sim_cls):
        sim = sim_cls()
        outer, inner = SimProfiler(), SimProfiler()
        with outer.observe(sim):
            with inner.observe(sim):
                assert sim.profiler is inner
            assert sim.profiler is outer
        assert sim.profiler is None

    def test_profiling_does_not_perturb_the_run(self, sim_cls):
        def run(profiled: bool):
            sim = sim_cls(seed=9)
            log = []

            def step():
                log.append((round(sim.now, 9), sim.rng.random()))
                if len(log) < 20:
                    sim.post(sim.rng.random(), step)

            sim.post(0.0, step)
            if profiled:
                with SimProfiler().observe(sim):
                    sim.run()
            else:
                sim.run()
            return log, sim.now, sim.fired

        assert run(True) == run(False)


def test_network_message_kinds_counted():
    sim = Simulator(seed=1)
    network = Network(sim, latency=LatencyModel(0.001, 0.0))
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    profiler = SimProfiler()
    with profiler.observe(sim):
        sim.post(0.0, lambda: [a.send("b", "data", i) for i in range(4)])
        sim.post(0.0, lambda: a.send("b", "ctl", None))
        sim.run()
    assert profiler.message_kinds["data"] == 4
    assert profiler.message_kinds["ctl"] == 1


def test_snapshot_is_json_friendly():
    import json

    sim = Simulator()
    profiler = SimProfiler()
    with profiler.observe(sim):
        sim.post(0.1, _ping, 0)
        sim.run()
    snap = profiler.snapshot()
    json.dumps(snap)  # must not raise
    assert snap["events"] == 1
    assert "event_kinds" in snap and "message_kinds" in snap
    assert snap["heap_watermark"] >= 1


def test_wall_time_accumulates_across_observes():
    sim = Simulator()
    profiler = SimProfiler()
    with profiler.observe(sim):
        sim.post(0.1, _ping, 0)
        sim.run()
    first = profiler.wall_seconds
    with profiler.observe(sim):
        sim.post(0.1, _ping, 1)
        sim.run()
    assert profiler.wall_seconds > first
    assert profiler.events == 2
