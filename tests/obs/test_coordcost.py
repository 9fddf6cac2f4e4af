"""Coordination-cost accounting: taxonomy, reports, and app-level shares."""

from __future__ import annotations

import pytest

from repro.api import get_app
from repro.obs.coordcost import (
    COORDINATION_DECISIONS,
    PLANE_COORDINATION,
    PLANE_DATA,
    PLANE_DELIVERY,
    CoordCostReport,
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
        ("zk.set", ("producers/x", ["a"]), PLANE_COORDINATION, "znode"),
        ("zk.get", "producers/x", PLANE_COORDINATION, "znode"),
        ("zk.get_reply", ("producers/x", ["a"]), PLANE_COORDINATION, "znode"),
        ("zk.set_reply", "producers/x", PLANE_COORDINATION, "znode"),
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
    report = CoordCostReport(
        messages_sent=10,
        planes={PLANE_DATA: 6, PLANE_COORDINATION: 3, PLANE_DELIVERY: 1},
        kinds={"zk.submit": 3},
        topics={"order:t": 3},
        decisions={"sequencer": 3, "replay": 2},
        decision_topics={"sequencer:t": 3},
        sim_time_overhead=0.01,
    )
    assert report.coordination_messages == 3
    assert report.coordination_share == 0.3
    assert report.coordination_decisions == 3  # replay is delivery machinery
    block = report.to_dict()
    assert block["schema_version"] == 1
    assert block["coordination_share"] == 0.3
    assert "replay" not in COORDINATION_DECISIONS


def test_empty_report_has_zero_share():
    report = coordcost_report(Telemetry())
    assert report.messages_sent == 0
    assert report.coordination_share == 0.0


def test_aggregate_coordcost_sums_and_recomputes_share():
    hub = Telemetry()
    hub.note_send("zk.submit", ("t", "v"))
    hub.note_send("st.chan", ("S", 0, 1, 0, ()))
    block = coordcost_report(hub).to_dict()
    merged = aggregate_coordcost([block, block, None])
    assert merged["runs"] == 2
    assert merged["messages_sent"] == 4
    assert merged["coordination_messages"] == 2
    assert merged["coordination_share"] == 0.5
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
