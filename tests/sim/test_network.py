"""Unit tests for the simulated network."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim import LatencyModel, Network, Process, Simulator


class Recorder(Process):
    """Collects every delivered message payload with its arrival time."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received: list[tuple[float, object]] = []

    def recv(self, msg) -> None:
        self.received.append((self.now, msg.payload))


def build(seed=0, **kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, **kwargs)
    return sim, network


def test_basic_delivery():
    sim, network = build()
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    a_handle = network.process("a")
    assert a_handle is a
    sim.schedule(0.0, lambda: a.send("b", "data", 42))
    sim.run()
    assert [p for _, p in b.received] == [42]
    assert network.delivered == 1


def test_unknown_destination_raises():
    sim, network = build()
    a = Recorder("a")
    network.register(a)
    with pytest.raises(SimulationError):
        network.send("a", "ghost", "data", 1)


def test_duplicate_registration_rejected():
    _, network = build()
    network.register(Recorder("a"))
    with pytest.raises(SimulationError):
        network.register(Recorder("a"))


def test_messages_can_reorder():
    """With jitter, back-to-back sends may arrive out of order for some seed."""
    reordered = False
    for seed in range(40):
        sim, network = build(seed=seed, latency=LatencyModel(base=0.001, jitter=0.01))
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)

        def burst():
            for i in range(10):
                a.send("b", "data", i)

        sim.schedule(0.0, burst)
        sim.run()
        payloads = [p for _, p in b.received]
        assert sorted(payloads) == list(range(10))
        if payloads != sorted(payloads):
            reordered = True
            break
    assert reordered, "no seed produced a reordering; jitter model broken"


def test_zero_jitter_preserves_order():
    sim, network = build(latency=LatencyModel(base=0.001, jitter=0.0))
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    sim.schedule(0.0, lambda: [a.send("b", "data", i) for i in range(20)])
    sim.run()
    assert [p for _, p in b.received] == list(range(20))


def test_drop_probability_drops_messages():
    sim, network = build(seed=7, drop_prob=0.5)
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    sim.schedule(0.0, lambda: [a.send("b", "data", i) for i in range(200)])
    sim.run()
    assert network.dropped > 20
    assert len(b.received) == 200 - network.dropped


def test_duplication_delivers_twice():
    sim, network = build(seed=7, dup_prob=0.5)
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    sim.schedule(0.0, lambda: [a.send("b", "data", i) for i in range(100)])
    sim.run()
    assert network.duplicated > 10
    assert len(b.received) == 100 + network.duplicated


def test_crashed_process_drops_deliveries():
    sim, network = build()
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    b.crashed = True
    sim.schedule(0.0, lambda: a.send("b", "data", 1))
    sim.run()
    assert b.received == []
    assert network.dropped == 1


def test_observers_see_deliveries():
    sim, network = build()
    seen = []
    network.observe(lambda msg: seen.append(msg.payload))
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    sim.schedule(0.0, lambda: a.send("b", "data", "hello"))
    sim.run()
    assert seen == ["hello"]


def test_same_seed_same_delivery_times():
    def run(seed):
        sim, network = build(seed=seed, latency=LatencyModel(0.001, 0.01))
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        sim.schedule(0.0, lambda: [a.send("b", "data", i) for i in range(10)])
        sim.run()
        return b.received

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_on_start_hook_runs():
    sim, network = build()

    class Starter(Recorder):
        started = 0

        def on_start(self):
            self.started += 1

    s = Starter("s")
    network.register(s)
    network.start()
    assert s.started == 1
    # once per process: a second start (a resumed run) starts only the
    # processes registered since the first
    late = Starter("late")
    network.register(late)
    network.start()
    assert (s.started, late.started) == (1, 1)
    assert s.sim is sim and late.network is network


@pytest.mark.parametrize(
    "base,jitter", [(-0.001, 0.002), (0.001, -0.002), (float("nan"), 0.002), (0.001, float("nan"))]
)
def test_latency_model_rejects_negative_parameters(base, jitter):
    # a negative base used to surface as a seed-dependent "cannot schedule
    # into the past" from inside the event loop; a negative jitter silently
    # meant no jitter at all
    with pytest.raises(SimulationError, match="latency"):
        LatencyModel(base=base, jitter=jitter)


def test_latency_model_accepts_zero_parameters():
    model = LatencyModel(base=0.0, jitter=0.0)
    assert model.sample(None) == 0.0  # no jitter: no draw


def test_the_inlined_draw_is_latency_model_sample():
    """``Network.send`` draws the latency inline; delivery times and the
    RNG state after a run must be what ``LatencyModel.sample`` gives."""
    latency = LatencyModel(base=0.003, jitter=0.007)
    sim, network = build(seed=11, latency=latency)
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    for i in range(50):
        a.send("b", "data", i)
    sim.run()
    rng = random.Random(11)
    expected = sorted((latency.sample(rng), i) for i in range(50))
    assert b.received == expected
    assert sim.rng.getstate() == rng.getstate()


def test_close_releases_the_run():
    sim, network = build(seed=1)
    a, b = Recorder("a"), Recorder("b")
    network.register(a)
    network.register(b)
    network.observe(lambda msg: None)
    network.start()
    a.send("b", "data", 1)
    sim.run()
    a.send("b", "data", 2)  # still in flight when the run is closed
    sent = network.sent
    network.close()
    assert network.processes == ()
    assert network._observers == [] and sim._queue == []
    # each process is as it was built: unregistered, holding nothing
    assert vars(b) == {"name": "b", "network": None, "sim": None, "crashed": False}
    assert network.sent == sent  # the run's counters stay readable
