"""The wire vocabulary: every message kind the runtimes put on a network.

An import-free leaf.  The modules that speak a protocol import its kinds
from here under their local names (``CHAN``, ``DATA``, ``SUBMIT``, ...);
the observers that classify traffic by kind (:mod:`repro.obs.coordcost`,
:mod:`repro.obs.spans`) import the same constants, so there is no second
spelling to drift.  So does the ``part:`` lineage id (:func:`part_lineage`)
that a seal release and the records it releases are traced under.
"""

from __future__ import annotations

# Storm executor: tuple channels and batch acks
ST_CHAN = "st.chan"
ST_ACK = "st.ack"

# transactional topologies: the commit coordinator's protocol
TXN_PREFIX = "txn."
TXN_READY = "txn.ready"
TXN_COMMITTED = "txn.committed"
TXN_REACK = "txn.reack"
TXN_KINDS = (TXN_READY, TXN_COMMITTED, TXN_REACK)

# sealed streams: data records and punctuations
SEAL_DATA = "seal.data"
SEAL_PUNCT = "seal.punct"


# the Zookeeper service: sequencer topics and the znode registry
ZK_PREFIX = "zk."
ZK_SUBMIT = "zk.submit"
ZK_DELIVER = "zk.deliver"
ZK_GET = "zk.get"
ZK_GET_REPLY = "zk.get_reply"
# Zookeeper sessions are TCP-backed in real deployments, so networks list
# every kind of the protocol as reliable.
ZK_KINDS = (ZK_SUBMIT, ZK_DELIVER, ZK_GET, ZK_GET_REPLY)

# Bloom clusters: channel rows and external inserts
BLOOM_CHAN = "bloom.chan"
BLOOM_INSERT = "bloom.insert"


def part_lineage(partition: object) -> str:
    """The span lineage id of a sealed-stream partition: ``part:<p>``."""
    return f"part:{partition}" if isinstance(partition, str) else f"part:{partition!r}"
