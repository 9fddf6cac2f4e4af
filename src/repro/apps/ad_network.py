"""The ad-tracking network (paper Sections I-B, VI-B, VIII-B).

Ad servers generate click-log entries and ship them to a set of replicated
reporting servers running the CAMPAIGN standing query; analysts pose
requests.  Four delivery regimes reproduce the paper's Figures 12-14:

``uncoordinated``
    Clicks flow straight to every replica — fastest, but replicas can
    return inconsistent answers (the paper "confirmed by observation").
``ordered``
    Every click and request is routed through the Zookeeper sequencer, so
    all replicas apply an identical total order.  Consistent, but the
    serialized quorum writes become the bottleneck.
``seal``
    Every ad server produces clicks for every campaign and punctuates each
    campaign when it finishes; a replica releases a campaign partition
    once all producers have sealed it (step-like progress).
``independent-seal``
    Each campaign is mastered at exactly one ad server, so one punctuation
    releases the partition (smooth progress, lowest latency).

The metric is the one the paper plots: cumulative click-log records
processed (visible in a reporting server's ``clicks`` table) over time.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable

from repro.api import StrategySpec, register
from repro.apps.queries import (
    CLICK_SCHEMA,
    ORDER_TOPIC,
    CacheTier,
    default_query_kwargs,
    figure4_app,
    make_report_module,
    report_observe,
    report_roles,
)
from repro.apps.source import PlannedSource, check_workload, runner_workload
from repro.chaos.envelope import order_only_envelope
from repro.chaos.schedule import baseline, dup_burst, reorder_burst
from repro.bloom.cluster import INSERT_MSG, ZK_KINDS, BloomCluster, BloomNode
from repro.bloom.rewrite import SealedInputAdapter, apply_strategy
from repro.coord.sealing import DATA as SEAL_DATA
from repro.coord.sealing import PUNCT as SEAL_PUNCT
from repro.coord.sealing import registry_path
from repro.coord.zookeeper import install_zookeeper, recorded_order
from repro.core.strategy import NoCoordination, SealStrategy
from repro.errors import BloomError, SimulationError
from repro.sim.network import LatencyModel

__all__ = [
    "APP",
    "AdWorkload",
    "AdNetworkResult",
    "CacheTier",
    "run_ad_network",
    "ad_network_dataflow",
]

# The Report component's declared input streams under their runtime
# names, and the collection the sealable one feeds.
REPORT_INPUTS = {"c": "click", "q_fwd": "request"}
CLICK_STREAMS = {"click": "click"}

# Click columns a seal strategy may punctuate on (column index into
# CLICK_SCHEMA); the paper's Figure 6 pairs WINDOW with ``window`` and
# CAMPAIGN with ``campaign``, the per-``id`` seal is POOR's boundary case.
SEAL_COLUMNS = {
    name: CLICK_SCHEMA.index(name) for name in ("campaign", "window", "id")
}
# The coordination service's time to commit one write.
ZK_WRITE_SERVICE = 0.003


@dataclasses.dataclass(frozen=True)
class AdWorkload:
    """Workload parameters (paper Section VIII-B defaults)."""

    ad_servers: int = 5
    entries_per_server: int = 1000
    batch_size: int = 50
    sleep: float = 0.25
    campaigns: int = 20
    ads_per_campaign: int = 5
    requests: int = 12
    report_replicas: int = 3

    def __post_init__(self) -> None:
        check_workload(self)

    @property
    def total_entries(self) -> int:
        return self.ad_servers * self.entries_per_server


def ad_network_dataflow(query: str, *, seal: list[str] | None = None):
    """The Figure 4 logical dataflow with the paper's manual annotations.

    This is the grey-box view of the system (Section VI-B1): the Report
    component carries the hand-written annotation for ``query`` (one of
    THRESH / POOR / WINDOW / CAMPAIGN) and the Cache tier its three
    confluent paths, including the gossip self-edge.  ``seal`` optionally
    annotates the clickstream.
    """
    from repro.core.annotations import CR, CW, OR
    from repro.core.graph import Dataflow

    queries = {
        "THRESH": CR(),
        "POOR": OR("id"),
        "WINDOW": OR("id", "window"),
        "CAMPAIGN": OR("id", "campaign"),
    }
    if query not in queries:
        raise BloomError(f"unknown query {query!r}; have {sorted(queries)}")
    flow = Dataflow(f"ad-network-{query}")
    report = flow.add_component("Report", rep=True)
    report.add_path("click", "response", CW())
    report.add_path("request", "response", queries[query])
    cache = flow.add_component("Cache")
    cache.add_path("request", "response", CR())
    cache.add_path("response", "response", CW())
    cache.add_path("request", "request", CR())
    flow.add_stream("c", dst=("Report", "click"), seal=seal)
    flow.add_stream("q", dst=("Cache", "request"))
    flow.add_stream("q_fwd", src=("Cache", "request"), dst=("Report", "request"))
    flow.add_stream("r", src=("Report", "response"), dst=("Cache", "response"))
    flow.add_stream("gossip", src=("Cache", "response"), dst=("Cache", "response"))
    flow.add_stream("answers", src=("Cache", "response"))
    return flow


def _plan_clicks(
    name: str, workload: AdWorkload, campaigns: list[int], seed: int, interleave: bool
) -> list[tuple]:
    """Lay out one ad server's click records.

    ``interleave`` models the data placement the paper discusses in
    Section X ("coordination locality"): when a campaign is mastered at
    this server (``interleave=False``, the independent-seal placement) its
    records are emitted contiguously and sealed as soon as the last one is
    sent; when ads are placed by serving locality instead
    (``interleave=True``) the server's clicks for different campaigns
    interleave arbitrarily, so most campaigns can only be sealed near the
    end of the stream.
    """
    rng = random.Random(f"adserver:{name}:{seed}")
    per_campaign = workload.entries_per_server // len(campaigns)
    extra = workload.entries_per_server - per_campaign * len(campaigns)
    entries: list[tuple] = []
    for index, campaign in enumerate(campaigns):
        count = per_campaign + (1 if index < extra else 0)
        # one label string per campaign and per ad, shared by every entry
        label = f"c{campaign}"
        ads = [f"ad{campaign}-{k}" for k in range(workload.ads_per_campaign)]
        for _ in range(count):
            ad = ads[rng.randrange(workload.ads_per_campaign)]
            window = rng.randrange(4)
            uid = f"{name}-{len(entries)}"
            entries.append((label, window, ad, uid))
    if interleave:
        rng.shuffle(entries)
    return entries


@dataclasses.dataclass
class AdNetworkResult:
    """Outcome of one ad-network run."""

    strategy: str
    workload: AdWorkload
    cluster: BloomCluster
    report_nodes: list[str]
    completion_time: float
    registry_lookups: int

    def processed_series(self, *, bucket: float = 0.25) -> list[tuple[float, int]]:
        """The first replica's cumulative processed-record count over time
        (Figures 12-14)."""
        return self.cluster.trace.timeline(
            f"processed:{self.report_nodes[0]}", bucket=bucket, weighted=True
        )

    def processed_count(self, node: str | None = None) -> int:
        source = node or self.report_nodes[0]
        return self.cluster.trace.total(f"processed:{source}")

    def responses(self, node: str) -> frozenset[tuple]:
        """Every response a replica ever emitted."""
        return self.cluster.node(node).output_history("response")

    @property
    def replicas_agree(self) -> bool:
        """Did every replica emit the same response set?"""
        sets = [self.responses(node) for node in self.report_nodes]
        return all(s == sets[0] for s in sets[1:])

    def summary(self) -> dict:
        """The JSON-able headline metrics of the run."""
        return {
            "processed": self.processed_count(),
            "total_entries": self.workload.total_entries,
            "completion_time": self.completion_time,
            "replicas_agree": self.replicas_agree,
        }

    # ------------------------------------------------------------------
    # chaos-audit hooks: quiescent state, ground truth, decision log
    # ------------------------------------------------------------------
    def sequencer_order(self) -> tuple:
        """The recorded sequencer order (empty unless the run was ordered):
        the decision log the order-conditioned oracle conditions cross-run
        comparisons on."""
        return recorded_order(self.cluster.trace, ORDER_TOPIC)

    def committed_state(self, node: str) -> frozenset[tuple]:
        """A replica's durable state at quiescence, tagged by table."""
        replica = self.cluster.node(node)
        return frozenset(
            {("click", *row) for row in replica.read("clicks")}
            | {("request", *row) for row in replica.read("requests")}
        )

    def ground_truth_state(self) -> frozenset[tuple]:
        """What every replica *should* have committed: all planned input."""
        rows: set[tuple] = set()
        for process in self.cluster.network.processes:
            if isinstance(process, PlannedSource):
                rows.update(("click", *row) for row in process.rows)
                rows.update(("request", *row) for row in process.asks)
        return frozenset(rows)


def run_ad_network(
    strategy: "str | StrategySpec",
    *,
    workload: AdWorkload | None = None,
    seed: int = 0,
    workload_seed: int | None = None,
    query: str = "CAMPAIGN",
    query_kwargs: dict | None = None,
    reliable_sessions: bool = False,
    max_events: int | None = None,
    chaos: "Callable[[BloomCluster], None] | None" = None,
) -> AdNetworkResult:
    """Execute the ad-tracking network under one coordination regime.

    ``strategy`` is a :class:`~repro.api.StrategySpec` (what
    ``BlazesApp.run`` passes) or the name of one of the ``adnet`` app's;
    the coordination it declares is installed through
    :mod:`repro.bloom.rewrite`.  ``seed`` controls network nondeterminism
    (delivery interleavings); ``workload_seed`` (defaulting to ``seed``)
    controls the generated click log, so two runs can share a workload
    while exploring different delivery orders.  A sealing strategy
    punctuates on the click column it declares (``campaign`` / ``window``
    / ``id`` — the per-query keys of Figure 6).  ``reliable_sessions``
    models every app session as TCP-backed: click/request/seal traffic is
    exempt from loss and duplication, retried across partitions, and
    re-delivered after a crashed peer restarts — the fault envelope of the
    query-matrix audit, where faults perturb order and timing but never
    durability.
    ``chaos`` receives the built, not-yet-running cluster so
    ``repro.chaos`` schedules can arm fault injection.
    """
    if isinstance(strategy, str):
        strategy = APP.strategy_spec(strategy)
    sealed_on = strategy.seals.get("c")
    seal_key = sealed_on[0] if sealed_on else "campaign"
    if seal_key not in SEAL_COLUMNS:
        raise ValueError(
            f"unknown seal column {seal_key!r}; have {sorted(SEAL_COLUMNS)}"
        )
    installed = strategy.installed("Report", REPORT_INPUTS)
    workload = runner_workload(workload, AdWorkload)
    # app semantics, not delivery: the independent-seal deployment masters
    # each campaign at one server (campaign c at server c % ad_servers)
    independent = strategy.name == "independent-seal"
    if independent and workload.campaigns < workload.ad_servers:
        # fewer campaigns than servers would leave idle servers and a
        # workload whose total_entries overstates the offered load
        raise SimulationError(
            f"independent-seal needs campaigns >= ad_servers "
            f"(got {workload.campaigns} < {workload.ad_servers})"
        )
    workload_seed = seed if workload_seed is None else workload_seed
    reliable_kinds = ZK_KINDS + (
        (SEAL_DATA, SEAL_PUNCT, INSERT_MSG) if reliable_sessions else ()
    )
    cluster = BloomCluster(
        seed=seed,
        latency=LatencyModel(base=0.002, jitter=0.004),
        reliable_kinds=reliable_kinds,
        retry_crashed=reliable_sessions,
    )

    report_nodes = [f"report{i}" for i in range(workload.report_replicas)]
    server_names = [f"adserver{i}" for i in range(workload.ad_servers)]

    # the sequencer and the seal registry are both the coordination service
    zk = (
        None
        if isinstance(installed, NoCoordination)
        else install_zookeeper(
            cluster.network, write_service=ZK_WRITE_SERVICE, trace=cluster.trace
        )
    )

    # Reporting replicas with their delivery policy.
    adapters = []
    probes = []
    for name in report_nodes:
        module = make_report_module(query, **(query_kwargs or {}))
        node = cluster.add_node(name, module)
        probes.append(_attach_processed_probe(cluster, node))
        adapters.append(
            apply_strategy(node, installed, zk=zk, stream_collections=CLICK_STREAMS)
        )

    # Ad servers generate click-log entries in bursts, each server the one
    # producer of the clicks it emits.
    seal_column = SEAL_COLUMNS[seal_key]
    servers: list[PlannedSource] = []
    for index, name in enumerate(server_names):
        campaigns = [
            c
            for c in range(workload.campaigns)
            if not independent or index == c % len(server_names)
        ]
        server = PlannedSource(
            name,
            installed,
            report_nodes,
            collection="click",
            # mastered campaigns are emitted contiguously; every other
            # placement spreads ads by serving locality, interleaving
            # campaigns in time
            rows=_plan_clicks(
                name, workload, campaigns, workload_seed + index, not independent
            ),
            partition_of=lambda row: row[seal_column],
            batch_size=workload.batch_size,
            sleep=workload.sleep,
            stream_collections=CLICK_STREAMS,
        )
        cluster.network.register(server)
        servers.append(server)

    if isinstance(installed, SealStrategy):
        # The seal registry reflects the *actual* producers: every server
        # whose planned entries touch a partition (a server that never
        # emits a partition must not be waited on).
        producer_sets: dict[object, set[str]] = {}
        for server in servers:
            for partition in server.seal_partitions:
                producer_sets.setdefault(partition, set()).add(server.name)
        for partition, producers in producer_sets.items():
            zk.preload_znode(registry_path(partition), sorted(producers))

    # The analyst poses requests about ads to every reporting replica.
    rng = random.Random(f"analyst:{workload_seed}")
    horizon = workload.entries_per_server / workload.batch_size * workload.sleep
    cluster.network.register(
        PlannedSource(
            "analyst",
            installed,
            report_nodes,
            ask_collection="request",
            asks=[
                (
                    f"q{index}",
                    f"ad{rng.randrange(workload.campaigns)}"
                    f"-{rng.randrange(workload.ads_per_campaign)}",
                )
                for index in range(workload.requests)
            ],
            ask_spacing=horizon / workload.requests,
        )
    )

    if chaos is not None:
        chaos(cluster)
    cluster.run(max_events=max_events)

    return AdNetworkResult(
        strategy=strategy.name,
        workload=workload,
        cluster=cluster,
        report_nodes=report_nodes,
        completion_time=_completion_time(cluster, probes),
        registry_lookups=sum(
            adapter.manager.registry_lookups
            for adapter in adapters
            if isinstance(adapter, SealedInputAdapter)
        ),
    )


def _attach_processed_probe(cluster: BloomCluster, node: BloomNode) -> dict:
    """Record the click records that became visible, one event per tick.

    The record's ``data`` is the tick's *delta* (an integer weight — see
    :meth:`repro.sim.trace.Trace.total`), and the table size comes from
    the runtime's O(1) cardinality, so the probe costs the same on a
    10k-row table as on an empty one.  Returns the probe's state, whose
    ``at`` is the time of its latest record (``None`` before the first).
    """
    state = {"seen": 0, "at": None}
    event = f"processed:{node.name}"

    def probe(_outputs) -> None:
        size = node.runtime.count("clicks")
        delta = size - state["seen"]
        if delta > 0:
            now = node.now
            cluster.trace.record(now, node.name, event, delta)
            state["seen"], state["at"] = size, now

    node.on_tick = probe
    return state


def _completion_time(cluster: BloomCluster, probes: list[dict]) -> float:
    """Virtual time at which the slowest replica finished processing: the
    latest ``processed:`` record of each replica, as its probe kept it
    (the current time for a replica that processed nothing), so no pass
    over the trace is needed."""
    now = cluster.sim.now
    return max((now if probe["at"] is None else probe["at"] for probe in probes), default=now)


# ----------------------------------------------------------------------
# the registered app (repro.api)
# ----------------------------------------------------------------------
def _run_app(strategy: StrategySpec, *, seed: int = 0, **kwargs):
    result = run_ad_network(strategy, seed=seed, **kwargs)
    summary = {**result.summary(), "registry_lookups": result.registry_lookups}
    return summary, result, result.cluster


def _audit_workload(smoke: bool) -> AdWorkload:
    return AdWorkload(
        ad_servers=2,
        entries_per_server=60 if smoke else 80,
        batch_size=20,
        sleep=0.1,
        campaigns=8,
        requests=4 if smoke else 6,
        report_replicas=2,
    )


# No retransmit layer exists here, so the envelope is order-perturbing
# faults only: reorder bursts and duplication (declared as the
# order_only_envelope below; anything else audits as out-of-envelope).
_AUDIT_SCHEDULES = (baseline(), reorder_burst(), dup_burst())


def _audit_run_params(smoke: bool) -> dict:
    workload = _audit_workload(smoke)
    return {
        "workload": workload,
        "query_kwargs": default_query_kwargs("CAMPAIGN", workload),
    }


APP = register(
    figure4_app(
        "adnet",
        "CAMPAIGN",
        description="Bloom ad-tracking network, CAMPAIGN query (Figure 4)",
        runner=_run_app,
        smoke_defaults={"workload": _audit_workload(True)},
    )
    .strategy(
        "seal",
        coordinated=True,
        seals={"c": ["campaign"]},
        default=True,
        description="clickstream sealed per campaign, all producers vote",
    )
    .strategy(
        "uncoordinated",
        description="clicks broadcast straight to every replica",
    )
    .strategy(
        "ordered",
        ordered=True,
        order_topic=ORDER_TOPIC,
        description="total order through the Zookeeper sequencer",
    )
    .strategy(
        "independent-seal",
        coordinated=True,
        seals={"c": ["campaign"]},
        description="each campaign mastered at one producer; single-seal release",
    )
    .audit_profile(
        strategies=("uncoordinated", "seal", "ordered"),
        horizon=0.4,
        schedules=_AUDIT_SCHEDULES,
        run_params=_audit_run_params,
        roles=report_roles,
        observe=report_observe,
        workload_seed=7,
        envelope=order_only_envelope(),
    )
)
