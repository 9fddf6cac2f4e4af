"""Unit tests for fault envelopes and the three-way cell taxonomy."""

from __future__ import annotations

import math

import pytest

from repro.chaos.envelope import (
    FAULT_KINDS,
    FaultEnvelope,
    cell_status,
    order_only_envelope,
    reliable_sessions_envelope,
    replay_envelope,
)
from repro.chaos.schedule import (
    crash_restart,
    dup_burst,
    loss_burst,
    reorder_burst,
    split_link,
)
from repro.errors import SimulationError


def test_an_envelope_of_every_kind_admits_everything():
    env = FaultEnvelope("unrestricted", frozenset(FAULT_KINDS))
    everything = (
        crash_restart()
        + loss_burst()
        + dup_burst()
        + reorder_burst()
        + split_link()
    )
    assert env.violations(everything) == ()


def test_disallowed_kind_is_a_violation():
    env = order_only_envelope()
    assert env.violations(reorder_burst() + dup_burst()) == ()
    broken = env.violations(loss_burst())
    assert len(broken) == 1
    assert "loss" in broken[0] and "order-only" in broken[0]
    # one line per offending fault
    assert len(env.violations(loss_burst() + crash_restart())) == 2


def test_crash_restart_deadline():
    env = replay_envelope()
    assert env.violations(crash_restart(at=0.15, duration=0.3)) == ()
    broken = env.violations(crash_restart(at=0.8, duration=0.5))
    assert len(broken) == 1
    assert "crash-without-restart" in broken[0]
    # no deadline declared -> any crash duration is fine
    lenient = FaultEnvelope("x", frozenset({"crash"}))
    assert lenient.violations(crash_restart(at=0.8, duration=5.0)) == ()


def test_probability_ceilings():
    env = FaultEnvelope(
        "lossy", frozenset({"loss", "duplicate"}),
        max_loss_prob=0.3, max_dup_prob=0.5,
    )
    assert env.violations(loss_burst(drop_prob=0.3)) == ()
    assert env.violations(loss_burst(drop_prob=0.31))
    assert env.violations(dup_burst(dup_prob=0.8))
    assert "ceiling" in env.violations(dup_burst(dup_prob=0.8))[0]


def test_unknown_fault_kind_rejected_at_construction():
    with pytest.raises(SimulationError, match="unknown fault kinds"):
        FaultEnvelope("bad", frozenset({"meteor"}))


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_loss_prob", math.nan),
        ("max_loss_prob", -0.1),
        ("max_dup_prob", 7.0),
        ("max_dup_prob", math.nan),
        ("crash_restart_by", math.nan),
        ("crash_restart_by", math.inf),
        ("crash_restart_by", -1.0),
    ],
)
def test_envelope_numbers_are_checked_at_declaration(field, value):
    """A NaN ceiling or deadline fails every comparison ``violations``
    makes, so it would admit a 0.9 loss window or a crash that never
    restarts in time: it is refused where the envelope is declared."""
    with pytest.raises(SimulationError, match=field):
        FaultEnvelope("bad", frozenset(FAULT_KINDS), **{field: value})


def test_envelope_coerces_fault_iterables():
    env = FaultEnvelope("x", {"reorder"})
    assert env.faults == frozenset({"reorder"})


def test_cell_status_taxonomy():
    assert cell_status(True, ()) == "sound"
    assert cell_status(False, ()) == "unsound"
    # out-of-envelope takes precedence over the soundness bit
    assert cell_status(False, ("loss outside",)) == "out-of-envelope"
    assert cell_status(True, ("loss outside",)) == "out-of-envelope"


def test_reliable_sessions_envelope():
    env = reliable_sessions_envelope()
    assert env.faults == frozenset({"reorder", "duplicate", "crash", "partition"})
    assert env.crash_restart_by == 1.0


def test_to_dict_is_jsonable():
    import json

    payload = json.loads(json.dumps(replay_envelope().to_dict()))
    assert payload["name"] == "replay"
    assert payload["faults"] == sorted(FAULT_KINDS)
    assert payload["crash_restart_by"] == 1.0


def test_registered_apps_declare_envelopes_their_defaults_satisfy():
    # the declaration-time check in BlazesApp.audit_profile guarantees
    # this, but assert it end-to-end for every registered audit app
    import repro.apps  # noqa: F401  (registers the catalog)
    from repro.chaos.harnesses import audit_apps, harness_for

    for name in audit_apps():
        for smoke in (False, True):
            harness = harness_for(name, smoke=smoke)
            assert harness.envelope is not None, name
            for schedule in harness.schedules:
                assert not harness.envelope.violations(schedule), (
                    name,
                    schedule.name,
                    harness.envelope.violations(schedule),
                )


def test_declaring_an_envelope_the_defaults_violate_is_an_api_error():
    import dataclasses

    import repro.apps  # noqa: F401
    from repro.api import get_app
    from repro.errors import ApiError

    # wordcount's default schedules include loss and crash faults, which
    # the order-only envelope forbids: re-declaring its audit profile
    # with that envelope must fail loudly (and leave the app untouched,
    # since validation precedes assignment)
    app = get_app("wordcount")
    original = app.audit_spec
    kwargs = {
        field.name: getattr(original, field.name)
        for field in dataclasses.fields(original)
    }
    kwargs["envelope"] = order_only_envelope()
    with pytest.raises(ApiError, match="violates the declared envelope"):
        app.audit_profile(**kwargs)
    assert app.audit_spec is original
