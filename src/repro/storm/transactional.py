"""Transactional topologies: globally ordered batch commits.

Storm's "transactional topology" support makes designated *committer* bolts
emit batches in a strict serial order, coordinated through Zookeeper (paper
Sections I-B and VIII-A).  The model here:

1. every terminal-bolt task reports ``ready(batch)`` to the commit
   coordinator when it has processed the batch's tuples;
2. the coordinator grants one batch at a time — the smallest batch id that
   every committer is ready for — by submitting it to the Zookeeper
   sequencer (one serialized quorum write per batch);
3. the sequencer's ordered delivery triggers the actual commit at each
   committer task (charged :data:`COMMIT_TIME`), which then acknowledges
   back;
4. only when every committer confirms does the coordinator grant the next
   batch.

A batch is granted once.  A replay can reach a committer after its batch
was granted: the replay resets the committer's state for the batch, so
the commit waits until the replayed attempt has been processed again and
then applies that attempt (never a half-refilled one).  A replay that
finishes after the grant — before or after the commit — is acknowledged
through ``txn.reack``, not committed again.

The serialized grant cycle — zookeeper write + fan-out + commit + fan-in —
is the throughput ceiling that the paper's Figure 11 measures against the
uncoordinated topology.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coord import zookeeper as zk
from repro.errors import StormError
from repro.sim.network import Message, Process
from repro.wire import (
    ST_ACK,
    TXN_COMMITTED as COMMITTED,
    TXN_READY as READY,
    TXN_REACK as REACK,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.executor import StormCluster, _BoltTask

__all__ = ["CommitCoordinator", "install_transactional"]

COMMITS_TOPIC = "txn.commits"
# Virtual seconds a committer spends applying one granted batch, and the
# coordination service's time to commit one write.
COMMIT_TIME = 0.001
ZK_WRITE_SERVICE = 0.002


class CommitCoordinator(Process):
    """Serializes batch commits across every committer task."""

    def __init__(self, name: str, cluster: "StormCluster") -> None:
        super().__init__(name)
        self.cluster = cluster
        self.committers = frozenset(cluster.acker_tasks)
        self.zk = zk.ZkClient(self)
        self._ready: dict[int, set[str]] = {}
        self._confirmations: dict[int, set[str]] = {}
        self._granted: int | None = None
        # committer-side: (task, batch) grants that found the batch reset by
        # a replay, to apply once that task finishes the batch again
        self._owed: set[tuple[str, int]] = set()
        self.committed: set[int] = set()

    # ------------------------------------------------------------------
    # messages
    # ------------------------------------------------------------------
    def recv(self, msg: Message) -> None:
        if self.zk.handle(msg):
            return
        if msg.kind == READY:
            self._on_ready(msg.payload, msg.src)
        elif msg.kind == COMMITTED:
            self._on_committed(msg.payload, msg.src)
        else:
            raise StormError(f"coordinator got unexpected message {msg.kind}")

    def _on_ready(self, batch: int, task: str) -> None:
        if batch in self.committed:
            # A replay of an already-committed batch: tell the task to
            # re-acknowledge without committing twice (at-most-once).
            self.send(task, REACK, batch)
            return
        self._ready.setdefault(batch, set()).add(task)
        self._try_grant()

    def _try_grant(self) -> None:
        if self._granted is not None:
            return
        candidates = sorted(
            batch
            for batch, tasks in self._ready.items()
            if self.committers <= tasks
        )
        if not candidates:
            return
        batch = candidates[0]
        self._granted = batch
        del self._ready[batch]
        self._confirmations[batch] = set()
        # One serialized quorum write per batch: the sequencer broadcasts
        # the commit decision to every committer in order.
        self.zk.submit(COMMITS_TOPIC, batch)

    def _on_committed(self, batch: int, task: str) -> None:
        confirmations = self._confirmations.get(batch)
        if confirmations is None:
            return
        confirmations.add(task)
        if not self.committers <= confirmations:
            return
        del self._confirmations[batch]
        self.committed.add(batch)
        if self._granted == batch:
            self._granted = None
        self.cluster.trace.record(self.now, self.name, "batch_committed", batch)
        # tasks that finished a replay of the batch while it was in flight
        for task in sorted(self._ready.pop(batch, ())):
            self.send(task, REACK, batch)
        self._try_grant()

    # ------------------------------------------------------------------
    # hooks called from committer tasks
    # ------------------------------------------------------------------
    def mark_ready(self, task: "_BoltTask", batch: int) -> None:
        """A committer task finished processing a batch's tuples."""
        if (task.name, batch) in self._owed:
            self._owed.discard((task.name, batch))
            task.after(COMMIT_TIME, lambda: self._commit(task, batch))
        else:
            task.send(self.name, READY, batch)

    def _commit(self, task: "_BoltTask", batch: int) -> None:
        if not task.has_finished(batch):
            self._owed.add((task.name, batch))
            return
        task.complete_batch(batch)
        task.send(self.name, COMMITTED, batch)

    def handle_task_message(self, task: "_BoltTask", msg: Message) -> bool:
        """Intercept coordinator-related traffic at a committer task."""
        if msg.kind == zk.DELIVER:
            topic, _seq, batch = msg.payload
            if topic != COMMITS_TOPIC:
                return False
            task.after(COMMIT_TIME, lambda: self._commit(task, batch))
            return True
        if msg.kind == REACK:
            batch = msg.payload
            owner = self.cluster.batch_owner(batch)
            task.send(owner, ST_ACK, batch)
            return True
        return False


def install_transactional(cluster: "StormCluster") -> CommitCoordinator:
    """Wire a commit coordinator and Zookeeper service into a cluster."""
    service = zk.install_zookeeper(cluster.network, write_service=ZK_WRITE_SERVICE)
    coordinator = CommitCoordinator("commit-coordinator", cluster)
    cluster.network.register(coordinator)
    for committer in cluster.acker_tasks:
        service.subscribe(COMMITS_TOPIC, committer)
    return coordinator
