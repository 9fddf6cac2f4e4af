"""Coordination-cost accounting: what sealing and ordering actually cost.

The paper's central trade-off — coordination buys consistency at the
price of latency and availability — is *asserted* by the label analysis;
this module measures it.  Every simulated message is classified into one
of three planes:

``coordination``
    The strategy's control traffic: seal votes (``seal.punct``),
    sequencer submissions and ordered deliveries (``zk.submit`` /
    ``zk.deliver``), znode registry reads and writes, and the storm
    transactional-commit protocol (``txn.*``).  This is the traffic an
    uncoordinated deployment simply does not send.
``delivery``
    Fault-tolerance machinery common to every strategy: storm batch acks
    and transport retransmissions.  Present whether or not the app
    coordinates, so it is kept out of the coordination share.
``data``
    Everything else — channel frames, bloom channel rows and inserts,
    sealed stream records (the records themselves flow under every
    strategy; the *votes* that gate their release are what coordination
    adds).

Alongside message counts the hub accrues *decisions* (seal votes and
releases, sequencer commits, registry lookups, replays, retries) and the
simulated-time serialization cost of the coordination service (the ZK
leader's busy time per operation), yielding a per-run
:class:`CoordCostReport` that benchmarks and audit cells embed in their
``BENCH_*.json``.

The message kinds come from :mod:`repro.wire`, the import-free leaf the
storm/coord/bloom modules take them from too: the classifier works for
any backend speaking the same wire vocabulary and depends on none.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from typing import Any

from repro.wire import (
    SEAL_DATA,
    SEAL_PUNCT,
    ST_ACK,
    TXN_PREFIX,
    ZK_DELIVER,
    ZK_GET,
    ZK_GET_REPLY,
    ZK_SET,
    ZK_SET_REPLY,
    ZK_SUBMIT,
)

__all__ = [
    "CoordCostReport",
    "PLANES",
    "TOPIC_KINDS",
    "aggregate_coordcost",
    "classify_message",
    "coordcost_report",
]

COORDCOST_SCHEMA_VERSION = 1

PLANE_DATA = "data"
PLANE_COORDINATION = "coordination"
PLANE_DELIVERY = "delivery"
PLANES = (PLANE_DATA, PLANE_COORDINATION, PLANE_DELIVERY)


_ZK_ZNODE_KINDS = frozenset({ZK_SET, ZK_GET, ZK_GET_REPLY, ZK_SET_REPLY})

# The only kinds whose classification reads the payload, and it reads
# nothing but ``payload[0]`` (the topic): a hub may tally sends by kind,
# plus the head for these, and classify the tally later.
TOPIC_KINDS = frozenset({SEAL_PUNCT, ZK_SUBMIT, ZK_DELIVER, SEAL_DATA})


def classify_message(kind: str, payload: Any) -> tuple[str, str]:
    """``(plane, topic)`` for one message; never raises.

    ``topic`` names the coordination scope the message serves — the
    sealed stream, the sequencer topic, the znode registry — and is empty
    for plain data traffic, whose per-kind counts suffice.
    """
    try:
        if kind == SEAL_PUNCT:
            return PLANE_COORDINATION, f"seal:{payload[0]}"
        if kind == ZK_SUBMIT or kind == ZK_DELIVER:
            return PLANE_COORDINATION, f"order:{payload[0]}"
        if kind in _ZK_ZNODE_KINDS:
            return PLANE_COORDINATION, "znode"
        if kind.startswith(TXN_PREFIX):
            return PLANE_COORDINATION, "txn"
        if kind == ST_ACK:
            return PLANE_DELIVERY, ""
        if kind == SEAL_DATA:
            return PLANE_DATA, f"seal:{payload[0]}"
    except (TypeError, IndexError, KeyError):
        # a malformed payload never breaks accounting; fall through to
        # the kind-only classification
        if kind == SEAL_PUNCT or kind in _ZK_ZNODE_KINDS:
            return PLANE_COORDINATION, ""
    return PLANE_DATA, ""


# Decision names the runtime reports (``Telemetry.note_decision``) that
# belong to the coordination plane; everything else (replays, retries,
# punctuation broadcasts) is fault-tolerance/delivery machinery.
COORDINATION_DECISIONS = frozenset(
    {"sequencer", "seal_vote", "seal_release", "registry_lookup", "zk_read", "zk_write"}
)


@dataclasses.dataclass(frozen=True)
class CoordCostReport:
    """One run's coordination-cost accounting, JSON-able via ``to_dict``.

    ``coordination_share`` is the coordination plane's fraction of
    ``messages_sent`` — the headline number: ~0 for an uncoordinated
    deployment, strictly positive wherever a strategy seals or orders.
    """

    messages_sent: int
    planes: dict[str, int]
    kinds: dict[str, int]
    topics: dict[str, int]
    decisions: dict[str, int]
    decision_topics: dict[str, int]
    sim_time_overhead: float

    @property
    def coordination_messages(self) -> int:
        return self.planes.get(PLANE_COORDINATION, 0)

    @property
    def coordination_share(self) -> float:
        if self.messages_sent <= 0:
            return 0.0
        return self.coordination_messages / self.messages_sent

    @property
    def coordination_decisions(self) -> int:
        return sum(
            count
            for name, count in self.decisions.items()
            if name in COORDINATION_DECISIONS
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": COORDCOST_SCHEMA_VERSION,
            "messages_sent": self.messages_sent,
            "planes": dict(self.planes),
            "kinds": dict(self.kinds),
            "topics": dict(self.topics),
            "decisions": dict(self.decisions),
            "decision_topics": dict(self.decision_topics),
            "coordination_messages": self.coordination_messages,
            "coordination_share": self.coordination_share,
            "coordination_decisions": self.coordination_decisions,
            "sim_time_overhead": self.sim_time_overhead,
        }


def coordcost_report(hub, *, messages_sent: int | None = None) -> CoordCostReport:
    """Derive the :class:`CoordCostReport` from a hub's counters.

    ``messages_sent`` (typically ``network.sent``) overrides the
    denominator; it defaults to the sends the hub itself observed, which
    is the same number whenever the hub was active for the whole run.
    """
    planes = {
        label: count for label, count in sorted(hub.counter("messages.plane").items())
    }
    observed = sum(planes.values())
    return CoordCostReport(
        messages_sent=messages_sent if messages_sent is not None else observed,
        planes=planes,
        kinds=dict(sorted(hub.counter("messages.kind").items())),
        topics=dict(sorted(hub.counter("messages.topic").items())),
        decisions=dict(sorted(hub.counter("decisions").items())),
        decision_topics=dict(sorted(hub.counter("decisions.topic").items())),
        sim_time_overhead=hub.sim_time_overhead,
    )


def aggregate_coordcost(reports: Iterable[dict | None]) -> dict[str, Any] | None:
    """Merge per-run ``to_dict`` blocks (e.g. one per audit seed).

    Counts and overheads sum; the share is recomputed over the summed
    totals.  ``None`` entries are skipped; all-``None`` yields ``None``.
    """
    merged: dict[str, Any] | None = None
    runs = 0
    for report in reports:
        if report is None:
            continue
        runs += 1
        if merged is None:
            merged = {
                "schema_version": report.get(
                    "schema_version", COORDCOST_SCHEMA_VERSION
                ),
                "messages_sent": 0,
                "planes": {},
                "kinds": {},
                "topics": {},
                "decisions": {},
                "decision_topics": {},
                "sim_time_overhead": 0.0,
            }
        merged["messages_sent"] += report.get("messages_sent", 0)
        merged["sim_time_overhead"] += report.get("sim_time_overhead", 0.0)
        for field in ("planes", "kinds", "topics", "decisions", "decision_topics"):
            for label, count in report.get(field, {}).items():
                merged[field][label] = merged[field].get(label, 0) + count
    if merged is None:
        return None
    coordination = merged["planes"].get(PLANE_COORDINATION, 0)
    merged["coordination_messages"] = coordination
    merged["coordination_share"] = (
        coordination / merged["messages_sent"] if merged["messages_sent"] else 0.0
    )
    merged["coordination_decisions"] = sum(
        count
        for name, count in merged["decisions"].items()
        if name in COORDINATION_DECISIONS
    )
    merged["runs"] = runs
    return merged
