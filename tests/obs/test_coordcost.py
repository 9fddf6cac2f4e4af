"""Coordination-cost accounting: taxonomy, reports, and app-level shares."""

from __future__ import annotations

import pytest

from repro.api import get_app
from repro.obs.coordcost import (
    COORDINATION_DECISIONS,
    PLANE_COORDINATION,
    PLANE_DATA,
    PLANE_DELIVERY,
    aggregate_coordcost,
    classify_message,
    coordcost_report,
)
from repro.obs.telemetry import Telemetry


@pytest.mark.parametrize(
    ("kind", "payload", "plane", "topic"),
    [
        ("seal.punct", ("clicks", 3, "c0", "server0"), PLANE_COORDINATION, "seal:clicks"),
        ("zk.submit", ("orders", ("row",)), PLANE_COORDINATION, "order:orders"),
        ("zk.deliver", ("orders", 0, ("row",)), PLANE_COORDINATION, "order:orders"),
        ("zk.get", "producers/x", PLANE_COORDINATION, "znode"),
        ("zk.get_reply", ("producers/x", ["a"]), PLANE_COORDINATION, "znode"),
        ("txn.ready", 3, PLANE_COORDINATION, "txn"),
        ("txn.committed", 3, PLANE_COORDINATION, "txn"),
        ("st.ack", 3, PLANE_DELIVERY, ""),
        ("st.chan", ("Spout", 0, 1, 0, (("tuple", ("w",)),)), PLANE_DATA, ""),
        ("seal.data", ("clicks", 0, "c0", ("row",), "s0"), PLANE_DATA, "seal:clicks"),
        ("bloom.insert", ("clicks", [("row",)]), PLANE_DATA, ""),
        ("bloom.chan", ("req", ("row",)), PLANE_DATA, ""),
        ("unknown.kind", None, PLANE_DATA, ""),
    ],
)
def test_classify_message_taxonomy(kind, payload, plane, topic):
    assert classify_message(kind, payload) == (plane, topic)


def test_classify_message_never_raises_on_malformed_payloads():
    assert classify_message("seal.punct", None) == (PLANE_COORDINATION, "")
    assert classify_message("zk.submit", 7)[0] == PLANE_DATA
    assert classify_message("seal.data", ()) == (PLANE_DATA, "")


def test_report_properties_and_schema():
    hub = Telemetry()
    for _ in range(6):
        hub.note_send("bloom.chan", ("req", ("row",)))
    for _ in range(3):
        hub.note_send("zk.submit", ("t", "v"))
        hub.note_decision("sequencer", topic="t", overhead=0.005)
    hub.note_send("st.ack", 1)
    for _ in range(2):
        hub.note_decision("replay")
    block = coordcost_report(hub)
    assert list(block) == [
        "schema_version",
        "messages_sent",
        "planes",
        "kinds",
        "topics",
        "decisions",
        "decision_topics",
        "coordination_messages",
        "coordination_share",
        "coordination_decisions",
        "sim_time_overhead",
    ]
    assert block["schema_version"] == 1
    assert block["messages_sent"] == 10
    assert block["planes"] == {PLANE_COORDINATION: 3, PLANE_DATA: 6, PLANE_DELIVERY: 1}
    assert block["topics"] == {"order:t": 3}
    assert block["decisions"] == {"replay": 2, "sequencer": 3}
    assert block["decision_topics"] == {"sequencer:t": 3}
    assert block["coordination_messages"] == 3
    assert block["coordination_share"] == 0.3
    assert block["coordination_decisions"] == 3  # replay is delivery machinery
    assert block["sim_time_overhead"] == pytest.approx(0.015)
    assert "replay" not in COORDINATION_DECISIONS
    # an explicit denominator (the network's sent count) wins
    assert coordcost_report(hub, messages_sent=20)["coordination_share"] == 0.15


def test_empty_report_has_zero_share():
    report = coordcost_report(Telemetry())
    assert report["messages_sent"] == 0
    assert report["coordination_share"] == 0.0


def test_aggregate_coordcost_sums_and_recomputes_share():
    hub = Telemetry()
    hub.note_send("zk.submit", ("t", "v"))
    hub.note_send("st.chan", ("S", 0, 1, 0, ()))
    hub.note_decision("seal_vote", topic="clicks", overhead=0.25)
    block = coordcost_report(hub)
    merged = aggregate_coordcost([block, block, None])
    assert merged["runs"] == 2
    assert merged["messages_sent"] == 4
    assert merged["coordination_messages"] == 2
    assert merged["coordination_share"] == 0.5
    assert merged["coordination_decisions"] == 2
    assert merged["kinds"] == {"st.chan": 2, "zk.submit": 2}
    assert merged["decision_topics"] == {"seal_vote:clicks": 2}
    assert merged["sim_time_overhead"] == 0.5
    assert aggregate_coordcost([None, None]) is None


def test_app_shares_uncoordinated_vs_sealed_vs_ordered():
    """The headline claim: coordination share ~0 without coordination,
    strictly positive with it, and ordering costs more than sealing."""
    shares = {}
    for strategy in ("uncoordinated", "seal", "ordered"):
        hub = Telemetry()
        outcome = get_app("adnet").run(strategy, seed=1, smoke=True, telemetry=hub)
        block = outcome.metrics["coordcost"]
        assert block["schema_version"] == 1
        assert block["messages_sent"] > 0
        shares[strategy] = block["coordination_share"]
    assert shares["uncoordinated"] == 0.0
    assert shares["seal"] > 0.0
    assert shares["ordered"] > shares["seal"]
