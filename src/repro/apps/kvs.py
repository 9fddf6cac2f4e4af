"""Convergence without confluence: the Section III-B key/value example.

The paper distinguishes *convergent* components (replicas eventually reach
the same state — eventual consistency) from *confluent* ones (outputs are a
deterministic function of input sets).  Its canonical counterexample: a
last-writer-wins key/value store is convergent — the final state is the
maximum-timestamp write per key, whatever the delivery order — but GETs
answered mid-stream read nondeterministic *snapshots*; when those snapshot
responses flow into a replicated, stateful cache, transient disagreement
hardens into permanent replica divergence.

:class:`LwwKvs` implements the store as a Bloom module (so the white-box
analysis applies to it), :class:`SnapshotCache` the downstream cache, and
:data:`APP` the two-tier dataflow Blazes diagnoses and runs.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable

from repro.api import BlazesApp, StrategySpec, annotate, register
from repro.apps.source import PlannedSource, check_workload, runner_workload
from repro.bloom.cluster import INSERT_MSG, ZK_KINDS, BloomCluster, BloomNode
from repro.chaos.envelope import FaultEnvelope
from repro.chaos.schedule import baseline, reorder_burst, split_link
from repro.bloom.module import BloomModule
from repro.bloom.rewrite import SealedInputAdapter, apply_strategy
from repro.coord.sealing import DATA as SEAL_DATA
from repro.coord.sealing import PUNCT as SEAL_PUNCT
from repro.coord.zookeeper import install_zookeeper
from repro.core.strategy import OrderStrategy
from repro.sim.network import LatencyModel

__all__ = [
    "APP",
    "KVS_ORDER_TOPIC",
    "LwwKvs",
    "SnapshotCache",
    "KvsWorkload",
    "SealedKvsAdapter",
    "KvsResult",
    "run_kvs",
]

KVS_ORDER_TOPIC = "kvs.inputs"
CLIENT = "client"
# The coordination service's time to commit one write.
ZK_WRITE_SERVICE = 0.001
# The Store component's declared input streams under their runtime
# names, and the collection the sealable one feeds.
STORE_INPUTS = {"puts": "kvs.puts", "gets": "kvs.gets"}
PUT_STREAMS = {"kvs.puts": "put"}


# The @annotate declarations are programmer *claims*; the white-box
# analyzer re-derives them from the rules and repro.api cross-checks the
# two whenever the registered app builds its dataflow.
@annotate(frm="put", to="getr", label="OR", subscript=["key"])
@annotate(frm="get", to="getr", label="OR", subscript=["key"])
class LwwKvs(BloomModule):
    """A last-writer-wins register store.

    ``put(key, val, ts)`` writes are merged by timestamp (ties broken by
    value, so the winner is a pure function of the write *set*);
    ``get(reqid, key)`` reads return the current winner via ``getr``.

    The winner computation aggregates over the accumulated writes, so the
    module is syntactically nonmonotonic: the white-box analysis derives
    an order-sensitive annotation with gate ``{key}`` — each key is an
    independent partition, which is exactly why per-key seals (or ordered
    delivery) restore determinism.
    """

    def setup(self) -> None:
        self.input_interface("put", ["key", "val", "ts"])
        self.input_interface("get", ["reqid", "key"])
        self.output_interface("getr", ["reqid", "key", "val"])
        self.table("writes", ["key", "val", "ts"])

    def rules(self):
        tagged = self.calc(
            self.scan("writes"), "rank", lambda val, ts: (ts, val), ["val", "ts"]
        )
        best = self.group_by(tagged, ["key"], [("maxrank", "max", "rank")])
        current = self.select(
            self.join(tagged, best, on=[("key", "key")]),
            lambda row: row["rank"] == row["maxrank"],
            refs=["rank", "maxrank"],
        )
        answers = self.project(current, ["key", "val"])
        return [
            self.rule("writes", "<=", self.scan("put")),
            self.rule(
                "getr",
                "<=",
                self.join(self.scan("get"), answers, on=[("key", "key")]),
            ),
        ]


@annotate(frm="response", to="cached", label="CW")
class SnapshotCache(BloomModule):
    """A replicated cache that remembers every response it ever saw.

    Append-only and order-insensitive in itself (``CW``), but caching the
    nondeterministic snapshots of an LWW store pins them forever — the
    replica-divergence mechanism of paper Section III-B.
    """

    def setup(self) -> None:
        self.input_interface("response", ["reqid", "key", "val"])
        self.output_interface("cached", ["reqid", "key", "val"])
        self.table("entries", ["reqid", "key", "val"])

    def rules(self):
        return [
            self.rule("entries", "<=", self.scan("response")),
            self.rule("cached", "<=", self.scan("entries")),
        ]


# ----------------------------------------------------------------------
# the runnable two-tier deployment (chaos-audit workload)
# ----------------------------------------------------------------------
# each of the store nodes receives every put and get; a store node's GET
# responses feed its *own* cache replica (replica ``i`` is the
# ``store{i}``/``cache{i}`` pair), which is how transient snapshot
# disagreement between stores hardens into cache divergence
STORE_REPLICAS = 2
# the client sends its writes in bursts of BATCH_SIZE, SLEEP apart
BATCH_SIZE = 4
SLEEP = 0.01


@dataclasses.dataclass(frozen=True)
class KvsWorkload:
    """Parameters for one simulated KVS deployment."""

    keys: int = 6
    writes_per_key: int = 6
    gets: int = 16

    def __post_init__(self) -> None:
        check_workload(self)

    @property
    def total_writes(self) -> int:
        return self.keys * self.writes_per_key

    @property
    def horizon(self) -> float:
        """Approximate virtual time over which the client emits."""
        bursts = (self.total_writes + BATCH_SIZE - 1) // BATCH_SIZE
        return bursts * SLEEP

    def winners(self) -> dict[str, str]:
        """Ground truth: the LWW winner per key (max timestamp wins)."""
        return {
            f"k{index}": _value_for(index, self.writes_per_key - 1)
            for index in range(self.keys)
        }


def _value_for(key_index: int, ts: int) -> str:
    return f"v{key_index}.{ts}"


def _kvs_client(
    strategy, store_nodes: list[str], workload: KvsWorkload, seed: int
) -> PlannedSource:
    """The workload driver: interleaved puts in bursts, gets on timers.

    Uncoordinated, every operation is broadcast straight to each store
    replica (fire-and-forget datagrams).  Under a seal strategy puts ride
    a punctuated stream per store, partitioned by ``key``, and a key is
    punctuated when its last write is sent — the per-key seal the
    analysis says discharges the store's gate; gets are still broadcast,
    and the consumer-side adapter holds them until their key's partition
    is complete.  Under an order strategy both puts and gets go through
    the Zookeeper sequencer, so every store replica applies one total
    order (state-machine replication) — consistent, but the answers
    reflect the sequencer's arbitrary interleaving rather than the final
    LWW winners.
    """
    rng = random.Random(f"kvs:{seed}")
    # per-key write sequences interleaved into one client order
    writes = [
        (f"k{key}", _value_for(key, ts), ts)
        for key in range(workload.keys)
        for ts in range(workload.writes_per_key)
    ]
    rng.shuffle(writes)
    return PlannedSource(
        CLIENT,
        strategy,
        store_nodes,
        collection="put",
        rows=writes,
        partition_of=lambda row: row[0],
        batch_size=BATCH_SIZE,
        sleep=SLEEP,
        ask_collection="get",
        asks=[
            (f"g{index}", f"k{rng.randrange(workload.keys)}")
            for index in range(workload.gets)
        ],
        ask_spacing=workload.horizon * 1.2 / workload.gets,
        stream_collections=PUT_STREAMS,
    )


class SealedKvsAdapter(SealedInputAdapter):
    """Per-key sealing with GET rendezvous.

    Beyond buffering the sealed put stream (inherited), GETs are deferred
    until their key's partition has been released: a get answered before
    the key's contents are complete would read a nondeterministic
    snapshot, which is exactly the anomaly sealing exists to prevent
    (paper footnote 2: determinism requires the query to come after all
    relevant inputs).  Puts and the gets they unblock are inserted in the
    same timestep, so released gets observe the complete key.
    """

    def __init__(self, node: BloomNode, stream: str, collection: str, **kwargs) -> None:
        super().__init__(node, stream, collection, **kwargs)
        self._deferred_gets: dict[str, list[tuple]] = {}
        node.route(INSERT_MSG, self._gate_gets)

    def _gate_gets(self, msg) -> None:
        collection, rows = msg.payload
        if collection != "get":
            self.node.insert(collection, rows)
            return
        ready: list[tuple] = []
        for row in rows:
            key = row[1]
            if key in self.manager.released:
                ready.append(tuple(row))
            else:
                self._deferred_gets.setdefault(key, []).append(tuple(row))
        if ready:
            self.node.insert("get", ready)

    def _release(self, partition, records: list) -> None:
        super()._release(partition, records)
        deferred = self._deferred_gets.pop(partition, None)
        if deferred:
            self.node.insert("get", deferred)


@dataclasses.dataclass
class KvsResult:
    """Outcome of one KVS run."""

    strategy: str
    workload: KvsWorkload
    cluster: BloomCluster
    store_nodes: list[str]
    cache_nodes: list[str]

    def cache_entries(self, node: str) -> frozenset[tuple]:
        """A cache replica's pinned responses at quiescence."""
        return self.cluster.node(node).read("entries")

    def store_writes(self, node: str) -> frozenset[tuple]:
        """A store replica's accumulated write set at quiescence."""
        return self.cluster.node(node).read("writes")

    @property
    def stores_converged(self) -> bool:
        """LWW convergence: do the store replicas hold one write set?"""
        sets = [self.store_writes(node) for node in self.store_nodes]
        return all(s == sets[0] for s in sets[1:])

    @property
    def caches_agree(self) -> bool:
        """Confluence: did the cache replicas pin the same responses?"""
        sets = [self.cache_entries(node) for node in self.cache_nodes]
        return all(s == sets[0] for s in sets[1:])


def run_kvs(
    strategy: "str | StrategySpec",
    *,
    workload: KvsWorkload | None = None,
    seed: int = 0,
    workload_seed: int | None = None,
    max_events: int | None = None,
    chaos: Callable[[BloomCluster], None] | None = None,
) -> KvsResult:
    """Execute the two-tier KVS under one coordination regime.

    ``strategy`` is a :class:`~repro.api.StrategySpec` (what
    ``BlazesApp.run`` passes) or the name of one of the ``kvs`` app's;
    the coordination it declares is installed through
    :mod:`repro.bloom.rewrite`.  ``seed`` drives network nondeterminism,
    ``workload_seed`` (defaulting to ``seed``) the planned writes/gets.
    All client sessions (the seal stream *and* plain inserts) ride
    reliable, TCP-like channels: a link partition delays traffic rather
    than destroying it, so any divergence the run exhibits is
    attributable to delivery *order* — exactly the nondeterminism the
    labels reason about.  ``chaos`` receives the built cluster before it
    runs.
    """
    if isinstance(strategy, str):
        strategy = APP.strategy_spec(strategy)
    installed = strategy.installed("Store", STORE_INPUTS)
    workload = runner_workload(workload, KvsWorkload)
    workload_seed = seed if workload_seed is None else workload_seed
    cluster = BloomCluster(
        seed=seed,
        latency=LatencyModel(base=0.002, jitter=0.004),
        reliable_kinds=ZK_KINDS + (SEAL_DATA, SEAL_PUNCT, INSERT_MSG),
    )
    # only the sequencer needs the service: the single client is every
    # key's whole producer set, so sealing looks nothing up
    zk = (
        install_zookeeper(
            cluster.network, write_service=ZK_WRITE_SERVICE, trace=cluster.trace
        )
        if isinstance(installed, OrderStrategy)
        else None
    )
    store_nodes = [f"store{i}" for i in range(STORE_REPLICAS)]
    cache_nodes = [f"cache{i}" for i in range(STORE_REPLICAS)]
    for store_name, cache_name in zip(store_nodes, cache_nodes):
        store = cluster.add_node(store_name, LwwKvs())
        cluster.add_node(cache_name, SnapshotCache())
        apply_strategy(
            store,
            installed,
            zk=zk,
            stream_collections=PUT_STREAMS,
            producers_for=lambda partition: frozenset({CLIENT}),
            sealed_adapter=SealedKvsAdapter,
        )
        _attach_response_forwarder(store, cache_name)
    cluster.network.register(
        _kvs_client(installed, store_nodes, workload, workload_seed)
    )
    if chaos is not None:
        chaos(cluster)
    cluster.run(max_events=max_events)
    return KvsResult(
        strategy=strategy.name,
        workload=workload,
        cluster=cluster,
        store_nodes=store_nodes,
        cache_nodes=cache_nodes,
    )


def _attach_response_forwarder(store: BloomNode, cache_name: str) -> None:
    """Ship a store's fresh GET responses to its paired cache replica."""
    seen: set[tuple] = set()

    def forward(_outputs) -> None:
        history = store.outputs_log["getr"]
        fresh = history - seen
        if fresh:
            seen.update(fresh)
            store.send(cache_name, INSERT_MSG, ("response", sorted(fresh)))

    store.on_tick = forward


# ----------------------------------------------------------------------
# the registered app (repro.api)
# ----------------------------------------------------------------------
def _run_app(strategy: StrategySpec, *, seed: int = 0, **kwargs):
    result = run_kvs(strategy, seed=seed, **kwargs)
    summary = {
        "total_writes": result.workload.total_writes,
        "gets": result.workload.gets,
        "stores_converged": result.stores_converged,
        "caches_agree": result.caches_agree,
    }
    return summary, result, result.cluster


# Every client session rides reliable (TCP-like) channels: partitions
# delay traffic rather than destroying or duplicating it, so all
# divergence here is *order*-driven.  (No dup-burst: the network
# exempts reliable kinds from duplication, so the cell would silently
# reduce to baseline.)
_AUDIT_SCHEDULES = (baseline(), reorder_burst(), split_link("client"))


def _audit_run_params(smoke: bool) -> dict:
    return {
        "workload": KvsWorkload(
            keys=4 if smoke else 6,
            writes_per_key=5 if smoke else 6,
            gets=10 if smoke else 16,
        ),
        "workload_seed": 7,
    }


def _audit_truth(outcome, _params: dict) -> frozenset:
    """Every get answered with the final LWW winner of its key: what the
    sealed deployment pins in each cache."""
    winners = outcome.result.workload.winners()
    client = outcome.cluster.network.process(CLIENT)
    return frozenset((reqid, key, winners[key]) for reqid, key in client.asks)


APP = register(
    BlazesApp(
        "kvs",
        backend="bloom",
        description="LWW key/value store feeding a replicated cache (III-B)",
        runner=_run_app,
        smoke_defaults={"workload": KvsWorkload(keys=4, writes_per_key=5, gets=10)},
    )
    .component("Store", LwwKvs, rep=True)
    .component("Cache", SnapshotCache)
    .stream("puts", to="Store.put")
    .stream("gets", to="Store.get")
    .stream("responses", frm="Store.getr", to="Cache.response")
    .stream("cached", frm="Cache.cached")
    .strategy(
        "sealed",
        coordinated=True,
        seals={"puts": ["key"]},
        default=True,
        description="per-key seals with GET rendezvous",
    )
    .strategy(
        "uncoordinated",
        description="operations broadcast straight to every store replica",
    )
    .strategy(
        "ordered",
        ordered=True,
        order_topic=KVS_ORDER_TOPIC,
        description="puts and gets through the Zookeeper sequencer",
    )
    .audit_profile(
        strategies=("uncoordinated", "sealed", "ordered"),
        horizon=0.12,
        schedules=_AUDIT_SCHEDULES,
        run_params=_audit_run_params,
        roles={"worker": "store", "cache": "cache", "client": CLIENT},
        # replica i is the store{i}/cache{i} pair: what the cache pinned,
        # and the store's GET responses
        committed=("cache", {"entries": None}),
        emitted=("worker", "getr"),
        truth=_audit_truth,
        # reliable (TCP-like) sessions with no crash recovery path: only
        # order-perturbing faults and healing partitions are in scope —
        # duplication is exempted by the reliable channels themselves and
        # a store crash would lose pinned state for good
        envelope=FaultEnvelope(
            "tcp-sessions",
            frozenset({"reorder", "partition"}),
            description="reliable sessions; partitions delay, never destroy",
        ),
    )
)
