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
leader's busy time per operation), yielding a per-run ``coordcost`` block
(:func:`coordcost_report`) that benchmarks and audit cells embed in their
``BENCH_*.json``.

The message kinds come from :mod:`repro.wire`, the import-free leaf the
storm/coord/bloom modules take them from too: the classifier works for
any backend speaking the same wire vocabulary and depends on none.
"""

from __future__ import annotations

from collections import Counter
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
    ZK_SUBMIT,
)

__all__ = [
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

# The block's raw per-label fields: one hub tally each (Telemetry.tallies).
TALLIES = ("planes", "kinds", "topics", "decisions", "decision_topics")


_ZK_ZNODE_KINDS = frozenset({ZK_GET, ZK_GET_REPLY})

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
    {"sequencer", "seal_vote", "seal_release", "registry_lookup", "zk_read"}
)


def _block(
    messages_sent: int, tallies: dict[str, dict], sim_time_overhead: float
) -> dict[str, Any]:
    """The coordcost block of raw fields, with the derived ones added.

    ``coordination_share`` is the coordination plane's fraction of
    ``messages_sent`` — the headline number: ~0 for an uncoordinated
    deployment, strictly positive wherever a strategy seals or orders.
    """
    planes = dict(sorted(tallies["planes"].items()))
    decisions = dict(sorted(tallies["decisions"].items()))
    coordination = planes.get(PLANE_COORDINATION, 0)
    return {
        "schema_version": COORDCOST_SCHEMA_VERSION,
        "messages_sent": messages_sent,
        "planes": planes,
        "kinds": dict(sorted(tallies["kinds"].items())),
        "topics": dict(sorted(tallies["topics"].items())),
        "decisions": decisions,
        "decision_topics": dict(sorted(tallies["decision_topics"].items())),
        "coordination_messages": coordination,
        "coordination_share": (
            coordination / messages_sent if messages_sent > 0 else 0.0
        ),
        "coordination_decisions": sum(
            count
            for name, count in decisions.items()
            if name in COORDINATION_DECISIONS
        ),
        "sim_time_overhead": sim_time_overhead,
    }


def coordcost_report(hub, *, messages_sent: int | None = None) -> dict[str, Any]:
    """One run's coordcost block, from a hub's tallies.

    ``messages_sent`` (typically ``network.sent``) overrides the
    denominator; it defaults to the sends the hub itself observed, which
    is the same number whenever the hub was active for the whole run.
    """
    tallies = hub.tallies()
    if messages_sent is None:
        messages_sent = sum(tallies["planes"].values())
    return _block(messages_sent, tallies, hub.sim_time_overhead)


def aggregate_coordcost(reports: Iterable[dict | None]) -> dict[str, Any] | None:
    """Merge per-run blocks (e.g. one per audit seed) into one, plus ``runs``.

    The raw fields sum and the derived ones are derived again over the
    sums.  ``None`` entries are skipped; all-``None`` yields ``None``.
    """
    blocks = [report for report in reports if report is not None]
    if not blocks:
        return None
    tallies = {field: Counter() for field in TALLIES}
    for block in blocks:
        for field, tally in tallies.items():
            tally.update(block[field])
    merged = _block(
        sum(block["messages_sent"] for block in blocks),
        tallies,
        sum((block["sim_time_overhead"] for block in blocks), 0.0),
    )
    merged["runs"] = len(blocks)
    return merged
