"""Coordination substrates: sequencing, ordered delivery, and sealing.

Implements the two delivery mechanisms Blazes chooses between
(paper Figure 5): ``M1/M2`` global message ordering through a
Zookeeper-like sequencer, and ``M3`` partition sealing driven by stream
punctuations.
"""

from repro.coord.assignment import ReplicaAssignment, stable_hash
from repro.coord.ordering import OrderedInbox
from repro.coord.sealing import DATA, PUNCT, SealManager, SealedStreamProducer
from repro.coord.zookeeper import ZkClient, ZookeeperService, install_zookeeper

__all__ = [
    "ReplicaAssignment",
    "stable_hash",
    "OrderedInbox",
    "DATA",
    "PUNCT",
    "SealManager",
    "SealedStreamProducer",
    "ZkClient",
    "ZookeeperService",
    "install_zookeeper",
]
