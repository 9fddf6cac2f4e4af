"""Recorded on the hop, derived on read — and indistinguishable from eager.

:class:`repro.obs.spans.SpanTracker` appends each delivery and decision
note to a raw log and derives span events and the row index from it on
first read; :meth:`repro.obs.telemetry.Telemetry.note_send` tallies sends
and folds the tally into the plane, kind and topic tallies on first read.
``tests/reference/telemetry_ref.py`` keeps the eager versions, and these
tests hold the two to the same observable output: every registered app
under each of its strategies and one fault schedule, the event cap with
decision notes and deliveries interleaved, and the classification of
malformed payloads.
"""

from __future__ import annotations

import pytest

from repro.api.registry import app_names, get_app
from repro.chaos.harnesses import harness_for
from repro.obs.coordcost import coordcost_report
from repro.obs.spans import SpanTracker
from repro.obs.telemetry import Telemetry
from repro.sim.network import Message
from tests.reference.telemetry_ref import EagerSpanTracker, EagerTelemetry


def _observable(hub) -> dict:
    """Everything a reader can get out of a hub, orders included."""
    spans = hub.spans
    events = spans.to_rows()  # the first read: the lazy tracker derives here
    rows = list(spans._lineage_of)
    return {
        "rows": events,
        "lineages": list(spans.lineages().items()),
        "index": list(spans._lineage_of.items()),
        "lineage_of": [spans.lineage_of(row) for row in rows],
        "dropped": spans.dropped,
        "coordcost": coordcost_report(hub),
        "tallies": _tallies(hub),
        "sim_time_overhead": hub.sim_time_overhead,
    }


def _tallies(hub) -> list:
    """The hub's tallies with their label insertion order."""
    return [(field, list(tally.items())) for field, tally in hub.tallies().items()]


def _matrix() -> list[tuple[str, str]]:
    return [(name, strategy) for name in app_names() for strategy in get_app(name).strategies]


@pytest.mark.parametrize("app_name,strategy", _matrix())
def test_a_faulted_run_reads_the_same_as_the_eager_hop(app_name, strategy):
    harness = harness_for(app_name, smoke=True)
    # the last schedule of each app's smoke library is its most disruptive
    schedule = harness.schedules[-1]
    params = harness.profile.run_params(True)
    seen = {}
    for name, hub in (("eager", EagerTelemetry(spans=True)), ("lazy", Telemetry(spans=True))):
        get_app(app_name).run(
            strategy, seed=3, chaos=harness._armer(schedule), telemetry=hub, **params
        )
        seen[name] = _observable(hub)
    assert isinstance(hub.spans, SpanTracker)
    assert seen["lazy"]["rows"], "the run produced no span events"
    assert seen["lazy"] == seen["eager"]


def _msg(kind, payload, uid, *, src="a", dst="b"):
    return Message(src, dst, kind, payload, 0.0, uid)


# a delivery of each shape, with rows indexed whether or not their event
# survives the cap
DELIVERIES = (
    ("st.chan", ("S#0", 1, 0, 0, (("tuple", ("w1",)), ("tuple", ("w2",)), ("punct",)))),
    ("seal.data", ("clicks", 0, "p0", ("r1", 1), "s0")),
    ("zk.deliver", ("orders", 0, ("tbl", ("r4",)))),
    ("bloom.insert", ("req", [("q0", "ad0"), ("q1", "ad1")])),
    ("st.ack", 1),
    ("zk.get_reply", ("k", "v")),
    ("txn.commit", 1),
    ("custom", None),
)


@pytest.mark.parametrize("cap", [0, 1, 3, 7])
def test_the_cap_drops_the_same_events_with_notes_interleaved(monkeypatch, cap):
    monkeypatch.setattr("repro.obs.spans._MAX_EVENTS", cap)
    eager, lazy = EagerSpanTracker(), SpanTracker()
    for round_ in range(3):
        for uid, (kind, payload) in enumerate(DELIVERIES):
            time = round_ + uid / 10
            for tracker in (eager, lazy):
                tracker.note_event(time, f"batch:{uid}", "replay", "n", f"attempt={round_}")
                tracker.note_delivery(_msg(kind, payload, uid), time)
        if round_ == 1:  # a read mid-run derives what is there; later notes still count
            assert lazy.dropped == eager.dropped
    assert lazy.events == eager.events
    assert lazy.dropped == eager.dropped
    assert len(lazy.events) == min(cap, len(eager.events) + eager.dropped)
    assert list(lazy._lineage_of.items()) == list(eager._lineage_of.items())
    for row in eager._lineage_of:
        assert lazy.lineage_of(row) == eager.lineage_of(row)
    assert repr(lazy).split("(")[1] == repr(eager).split("(")[1]


class _Odd:
    """A payload whose indexing fails the way coordcost tolerates."""

    def __getitem__(self, index):
        raise KeyError(index)


SENDS = (
    ("seal.punct", ("clicks", 0, "p0", "s0")),
    ("seal.punct", ("views", 1, "p1", "s0")),
    ("seal.punct", None),
    ("seal.punct", ()),
    ("seal.punct", 7),
    ("seal.punct", _Odd()),
    ("seal.punct", (1, 0, "p0", "s0")),
    ("seal.punct", (True, 0, "p0", "s0")),
    ("seal.punct", (1.0, 0, "p0", "s0")),
    ("seal.punct", ([1], 0)),
    ("seal.punct", "clicks"),
    ("seal.data", {0: "dict-head"}),
    ("seal.data", {}),
    ("zk.submit", ("orders", ("tbl", ("r",)))),
    ("zk.submit", None),
    ("zk.deliver", (("tuple", "topic"), 0, None)),
    ("zk.deliver", []),
    ("zk.get", None),
    ("zk.get_reply", ("k",)),
    ("txn.commit", 4),
    ("st.ack", 4),
    ("st.chan", None),
    ("bloom.chan", ("req", ("q", "ad"))),
    ("custom", object()),
)


def test_malformed_payloads_are_classified_as_the_eager_hop_does():
    eager, lazy = EagerTelemetry(), Telemetry()
    for repeat in range(2):
        for kind, payload in SENDS[repeat:]:
            eager.note_send(kind, payload)
            lazy.note_send(kind, payload)
        eager.note_decision("seal_vote", topic="clicks")
        lazy.note_decision("seal_vote", topic="clicks")
        assert _tallies(lazy) == _tallies(eager)  # folds, then keeps tallying
    assert coordcost_report(lazy) == coordcost_report(eager)
    assert lazy.tallies()["topics"]["seal:1"] == 2
    assert lazy.tallies()["topics"]["seal:True"] == 2
