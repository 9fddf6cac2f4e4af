"""Unit tests for the fault-schedule DSL."""

from __future__ import annotations

import json
import math

import pytest

from repro.chaos.schedule import (
    Crash,
    Duplicate,
    FaultSchedule,
    Loss,
    Partition,
    Reorder,
    baseline,
    crash_restart,
    dup_burst,
    loss_burst,
    reorder_burst,
    schedule_from_dict,
    split_link,
)
from repro.errors import SimulationError
from repro.sim import FailureInjector, Network, Process, Simulator

NAN = math.nan
INF = math.inf


class Echo(Process):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def recv(self, msg):
        self.got.append(msg.payload)


def build_injector():
    sim = Simulator(seed=1)
    network = Network(sim)
    for name in ("w0", "w1", "s0"):
        network.register(Echo(name))
    return sim, network, FailureInjector(network)


def resolve(role, index):
    return {"worker": ["w0", "w1"], "source": ["s0"]}[role][index]


def test_schedules_compose_with_plus():
    combined = crash_restart() + loss_burst()
    assert combined.name == "crash-restart+loss-burst"
    assert len(combined.faults) == 2
    assert isinstance(combined.faults[0], Crash)
    assert isinstance(combined.faults[1], Loss)


def test_scaled_multiplies_times_and_durations():
    schedule = FaultSchedule("s", (Crash("worker", 0, at=0.2, duration=0.5),))
    scaled = schedule.scaled(10.0)
    fault = scaled.faults[0]
    assert fault.at == pytest.approx(2.0)
    assert fault.duration == pytest.approx(5.0)
    # scaling is a pure transform: the original is untouched
    assert schedule.faults[0].at == pytest.approx(0.2)


def test_scaled_rejects_nonpositive_factor():
    with pytest.raises(SimulationError):
        baseline().scaled(0.0)


def test_horizon_and_roles():
    schedule = (
        crash_restart("worker", 1, at=0.1, duration=0.4)
        + split_link("source", 0, "worker", 0, at=0.2, duration=0.2)
        + reorder_burst(at=0.0, duration=0.9, factor=4.0)
    )
    assert schedule.horizon == pytest.approx(0.9)
    assert schedule.roles == frozenset({"worker", "source"})
    assert baseline().horizon == 0.0
    assert baseline().roles == frozenset()


def test_apply_compiles_onto_injector():
    sim, network, injector = build_injector()
    schedule = (
        crash_restart("worker", 1, at=1.0, duration=1.0)
        + split_link("source", 0, "worker", 0, at=1.0, duration=1.0)
    )
    schedule.apply(injector, resolve)
    sim.run()
    assert ("w1" in {name for _t, name in injector.crashes})
    assert any((src, dst) == ("s0", "w0") for _t, src, dst in injector.partitions)
    assert injector.recoveries and injector.heals


def test_apply_baseline_is_a_noop():
    sim, network, injector = build_injector()
    baseline().apply(injector, resolve)
    assert sim.pending == 0


def test_unknown_role_is_an_error_at_apply_time():
    sim, network, injector = build_injector()
    schedule = crash_restart("replica", 0)
    with pytest.raises(KeyError):
        schedule.apply(injector, resolve)


def test_describe_lists_faults():
    text = (loss_burst() + dup_burst()).describe()
    assert "loss-burst+dup-burst" in text
    assert "Loss" in text and "Duplicate" in text
    assert baseline().describe().endswith("no faults")


def test_every_primitive_round_trips_through_rescale():
    faults = (
        Crash("worker", 0, 0.1, 0.2),
        Loss(0.1, 0.2, 0.5),
        Duplicate(0.1, 0.2, 0.5),
        Partition("source", 0, "worker", 1, 0.1, 0.2),
        Reorder(0.1, 0.2, 8.0),
    )
    for fault in faults:
        back = fault.rescaled(2.0).rescaled(0.5)
        assert back.at == pytest.approx(fault.at)
        assert back.duration == pytest.approx(fault.duration)
        assert back.end == pytest.approx(fault.end)


# ----------------------------------------------------------------------
# construction-time validation
# ----------------------------------------------------------------------
def test_negative_windows_raise_for_every_primitive():
    with pytest.raises(SimulationError):
        Crash("worker", 0, -0.1, 0.2)
    with pytest.raises(SimulationError):
        Loss(0.1, -0.2, 0.5)
    with pytest.raises(SimulationError):
        Partition("a", 0, "b", 0, -1e-9, 0.1)
    with pytest.raises(SimulationError):
        Reorder(0.1, 0.2, -1.0)


def test_probability_faults_validate_their_probability():
    with pytest.raises(SimulationError, match="drop_prob"):
        Loss(0.1, 0.2, 1.5)
    with pytest.raises(SimulationError, match="dup_prob"):
        Duplicate(0.1, 0.2, -0.5)


# NaN and infinity fail construction too, from code or from a JSON spec
@pytest.mark.parametrize(
    "build",
    [
        lambda: Crash("worker", 0, NAN, 0.2),
        lambda: Crash("worker", 0, 0.1, NAN),
        lambda: Crash("worker", 0, 0.1, INF),
        lambda: Loss(NAN, 0.2, 0.5),
        lambda: Loss(0.1, NAN, 0.5),
        lambda: Loss(0.1, 0.2, NAN),
        lambda: Duplicate(0.1, NAN, 0.5),
        lambda: Duplicate(INF, 0.2, 0.5),
        lambda: Partition("a", 0, "b", 0, NAN, 0.1),
        lambda: Partition("a", 0, "b", 0, 0.1, NAN),
        lambda: Reorder(0.1, 0.2, NAN),
        lambda: Reorder(0.1, 0.2, INF),
        lambda: Reorder(0.1, NAN, 2.0),
    ],
)
def test_dsl_rejects_non_finite_fields(build):
    with pytest.raises(SimulationError):
        build()


@pytest.mark.parametrize(
    "fault",
    [
        '{"kind": "loss", "at": NaN, "duration": 0.1, "drop_prob": 0.2}',
        '{"kind": "loss", "at": 0.1, "duration": NaN, "drop_prob": 0.2}',
        '{"kind": "duplicate", "at": 0.1, "duration": 0.2, "dup_prob": NaN}',
        '{"kind": "reorder", "at": 0.1, "duration": 0.2, "factor": NaN}',
        '{"kind": "crash", "role": "worker", "index": 0, "at": 0.1, "duration": Infinity}',
    ],
)
def test_json_specs_cannot_carry_nan_or_infinity(fault):
    spec = json.loads('{"name": "bad", "faults": [%s]}' % fault)
    with pytest.raises(SimulationError):
        schedule_from_dict(spec)


# ----------------------------------------------------------------------
# intensity scaling (the severity-frontier axis)
# ----------------------------------------------------------------------
def test_with_intensity_endpoints():
    schedule = (
        crash_restart(at=0.1, duration=0.4)
        + loss_burst(drop_prob=0.4)
        + reorder_burst(factor=8.0)
    )
    full = schedule.with_intensity(1.0)
    assert [f.end for f in full.faults] == [
        pytest.approx(f.end) for f in schedule.faults
    ]
    # lam=0 melts every fault to a no-op, which is dropped: the empty
    # schedule is indistinguishable from baseline
    assert schedule.with_intensity(0.0).faults == ()


def test_with_intensity_scales_each_kind_on_its_own_axis():
    schedule = FaultSchedule(
        "mix",
        (
            Crash("worker", 0, 0.1, 0.4),
            Loss(0.1, 0.2, 0.8),
            Duplicate(0.1, 0.2, 0.6),
            Partition("a", 0, "b", 0, 0.1, 0.4),
            Reorder(0.1, 0.2, 9.0),
        ),
    )
    half = schedule.with_intensity(0.5)
    crash, loss, dup, part, reorder = half.faults
    assert crash.duration == pytest.approx(0.2)
    assert crash.at == pytest.approx(0.1)  # windows never move
    assert loss.drop_prob == pytest.approx(0.4)
    assert dup.dup_prob == pytest.approx(0.3)
    assert part.duration == pytest.approx(0.2)
    assert reorder.factor == pytest.approx(5.0)  # toward neutral 1, not 0


def test_with_intensity_rejects_out_of_range():
    with pytest.raises(SimulationError):
        loss_burst().with_intensity(1.5)
    with pytest.raises(SimulationError):
        loss_burst().with_intensity(-0.1)


# ----------------------------------------------------------------------
# dict round-trip (how searched schedules travel through JSON params)
# ----------------------------------------------------------------------
def test_schedule_round_trips_through_dict():
    import json

    from repro.chaos.schedule import schedule_from_dict, schedule_to_dict

    schedule = (
        crash_restart("worker", 1, at=0.1, duration=0.4)
        + split_link("source", 0, "worker", 0, at=0.2, duration=0.2)
        + loss_burst()
        + dup_burst()
        + reorder_burst()
    )
    data = json.loads(json.dumps(schedule_to_dict(schedule)))
    back = schedule_from_dict(data)
    assert back == schedule


def test_fault_from_dict_rejects_unknown_kind():
    from repro.chaos.schedule import fault_from_dict

    with pytest.raises(SimulationError, match="unknown fault kind"):
        fault_from_dict({"kind": "meteor", "at": 0.1, "duration": 0.2})
