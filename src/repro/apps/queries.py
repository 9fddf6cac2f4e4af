"""The reporting-server queries of paper Figure 6, as Bloom modules.

Every module shares the same interfaces — a ``click`` stream with schema
``(campaign, window, id, uid)`` and a ``request`` stream ``(reqid, id)`` —
and differs only in the standing query evaluated over the accumulated
click log:

=========  ====================================================  ==========
query      continuous query (Figure 6, SQL syntax)               annotation
=========  ====================================================  ==========
THRESH     ``having count(*) > 1000``                            CR
POOR       ``having count(*) < 100``                             OR[id]
WINDOW     ``group by window, id having count(*) < 100``         OR[id,window]
CAMPAIGN   ``group by campaign, id having count(*) < 100``       OR[id,campaign]
=========  ====================================================  ==========

THRESH is confluent because its count is observed only through a monotone
threshold (the lattice argument of the paper's reference [34]); the
``monotone=True`` hint on its aggregation is how a Bloom programmer states
that fact.  The annotations above are what the white-box analysis derives
for the request-to-response path (Section VI-B1).

Each query is also a registered :class:`~repro.api.BlazesApp`
(``q-thresh`` / ``q-poor`` / ``q-window`` / ``q-campaign``) deployed on
the simulated ad network under three regimes — ``uncoordinated``,
``sealed`` (clickstream punctuated on the query's own seal key), and
``ordered`` (all inputs through the Zookeeper sequencer) — which is what
lets the fault audit sweep the full Figure 6 coordination-requirement
matrix empirically (``blazes audit --matrix``).
"""

from __future__ import annotations

import inspect

from repro.api import BlazesApp, annotate, register
from repro.bloom.module import BloomModule
from repro.chaos.envelope import reliable_sessions_envelope
from repro.chaos.schedule import baseline, crash_restart, dup_burst, reorder_burst
from repro.errors import BloomError

__all__ = [
    "QUERY_NAMES",
    "QUERY_MATRIX_APPS",
    "QUERY_SEAL_KEYS",
    "CacheTier",
    "ThreshReport",
    "PoorReport",
    "WindowReport",
    "CampaignReport",
    "make_report_module",
]

QUERY_NAMES = ("THRESH", "POOR", "WINDOW", "CAMPAIGN")

CLICK_SCHEMA = ("campaign", "window", "id", "uid")
REQUEST_SCHEMA = ("reqid", "id")
RESPONSE_SCHEMA = ("reqid", "id")

# The sequencer topic every reporting deployment's ordered strategy rides
# (defined here, the leaf module, so the app registrations below need no
# import of repro.apps.ad_network, which imports this module).
ORDER_TOPIC = "report.inputs"


class _ReportBase(BloomModule):
    """Shared structure: log clicks into a table, answer requests.

    Requests persist in a table — they are *standing* (continuous)
    queries, re-evaluated as the click log grows, matching the paper's
    "reporting servers compute a continuous query" model.  This is also
    what makes the seal strategy sufficient end-to-end: a request posed
    before its campaign partition is complete simply produces its answer
    on the timestep the partition is released (footnote 2 of the paper:
    determinism requires the query to come after all relevant clicks).
    Both tables are confluent appends upstream of the standing query's
    aggregation, so the white-box analysis extracts ``OR[gate]`` for the
    request-to-response path — the same annotation the paper writes by
    hand in Section VI-B1.
    """

    def setup(self) -> None:
        self.input_interface("click", CLICK_SCHEMA)
        self.input_interface("request", REQUEST_SCHEMA)
        self.output_interface("response", RESPONSE_SCHEMA)
        self.table("clicks", CLICK_SCHEMA)
        self.table("requests", REQUEST_SCHEMA)

    def _query(self):  # pragma: no cover - interface
        """The standing query: a node with an ``id`` column."""
        raise NotImplementedError

    def rules(self):
        answers = self._query().project("id")
        return [
            self.rule("clicks", "<=", self.scan("click")),
            self.rule("requests", "<=", self.scan("request")),
            self.rule(
                "response",
                "<=",
                self.join(self.scan("requests"), answers, on=[("id", "id")]),
            ),
        ]


class ThreshReport(_ReportBase):
    """THRESH: ads with more than ``threshold`` clicks (confluent)."""

    def __init__(self, threshold: int = 1000, name: str | None = None) -> None:
        self.threshold = threshold
        super().__init__(name)

    def _query(self):
        counts = self.group_by(
            self.scan("clicks"), ["id"], [("cnt", "count", None)], monotone=True
        )
        return counts.where(
            lambda r: r["cnt"] > self.threshold, refs=["cnt"]
        )


class PoorReport(_ReportBase):
    """POOR: ads with fewer than ``threshold`` clicks (nonmonotonic)."""

    def __init__(self, threshold: int = 100, name: str | None = None) -> None:
        self.threshold = threshold
        super().__init__(name)

    def _query(self):
        counts = self.group_by(
            self.scan("clicks"), ["id"], [("cnt", "count", None)]
        )
        return counts.where(lambda r: r["cnt"] < self.threshold, refs=["cnt"])


class WindowReport(_ReportBase):
    """WINDOW: poor performers per one-hour window (sealable on window)."""

    def __init__(self, threshold: int = 100, name: str | None = None) -> None:
        self.threshold = threshold
        super().__init__(name)

    def _query(self):
        counts = self.group_by(
            self.scan("clicks"), ["window", "id"], [("cnt", "count", None)]
        )
        return counts.where(lambda r: r["cnt"] < self.threshold, refs=["cnt"])


class CampaignReport(_ReportBase):
    """CAMPAIGN: poor performers per campaign (sealable on campaign)."""

    def __init__(self, threshold: int = 100, name: str | None = None) -> None:
        self.threshold = threshold
        super().__init__(name)

    def _query(self):
        counts = self.group_by(
            self.scan("clicks"), ["campaign", "id"], [("cnt", "count", None)]
        )
        return counts.where(lambda r: r["cnt"] < self.threshold, refs=["cnt"])


_REGISTRY = {
    "THRESH": ThreshReport,
    "POOR": PoorReport,
    "WINDOW": WindowReport,
    "CAMPAIGN": CampaignReport,
}


def make_report_module(query: str, **kwargs) -> BloomModule:
    """Instantiate the reporting module for one Figure 6 query."""
    factory = _REGISTRY.get(str(query).upper())
    if factory is None:
        raise BloomError(f"unknown query {query!r}; have {QUERY_NAMES}")
    if kwargs:
        try:
            inspect.signature(factory).bind(**kwargs)
        except TypeError as exc:
            raise BloomError(f"query {query!r}: {exc}") from None
    return factory(**kwargs)


@annotate(frm="request", to="response", label="CR")
@annotate(frm="response", to="response", label="CW")
@annotate(frm="request", to="request", label="CR")
class CacheTier:
    """The analyst-facing caching tier of Figure 4, grey-box annotated.

    Requests are forwarded (confluent reads), responses append into the
    cache and gossip to peers (a confluent write plus the self-edge that
    forms the paper's footnote-3 cycle).  The tier exists in the logical
    dataflow only; the simulated deployment answers analysts straight
    from the reporting replicas.
    """


# ----------------------------------------------------------------------
# the registered query-matrix apps (repro.api)
# ----------------------------------------------------------------------
# The seal key the paper's Figure 6 pairs with each query: the attribute
# whose punctuation discharges the query's order-sensitive gate.  POOR's
# gate is the bare ad ``id``; the paper rules sealing out there because an
# unbounded clickstream never completes an ad's partition — the finite
# audit workload does complete it, so the per-id seal is the (boundary)
# case where sealing works exactly when the stream can be punctuated.
QUERY_SEAL_KEYS = {
    "THRESH": "campaign",
    "POOR": "id",
    "WINDOW": "window",
    "CAMPAIGN": "campaign",
}

# Registered app name -> Figure 6 query: the matrix the audit sweeps.
QUERY_MATRIX_APPS = {
    "q-thresh": "THRESH",
    "q-poor": "POOR",
    "q-window": "WINDOW",
    "q-campaign": "CAMPAIGN",
}

# `blazes audit --matrix` strategy columns, shared with chaos.campaign.
MATRIX_STRATEGIES = ("uncoordinated", "sealed", "ordered")


def figure4_app(name: str, query: str, **app_kwargs) -> BlazesApp:
    """A Bloom app declaring the Figure 4 dataflow around one query's
    Report module; the caller adds strategies and the audit profile."""
    return (
        BlazesApp(name, backend="bloom", **app_kwargs)
        .component("Report", lambda: make_report_module(query), rep=True)
        .component("Cache", CacheTier)
        .stream("c", to="Report.click")
        .stream("q", to="Cache.request")
        .stream("q_fwd", frm="Cache.request", to="Report.request")
        .stream("r", frm="Report.response", to="Cache.response")
        .stream("gossip", frm="Cache.response", to="Cache.response")
        .stream("answers", frm="Cache.response")
    )


def _query_runner(query: str):
    def runner(
        strategy,
        *,
        seed: int = 0,
        workload=None,
        query_kwargs: dict | None = None,
        **kwargs,
    ):
        from repro.apps.ad_network import AdWorkload, run_ad_network
        from repro.apps.source import runner_workload

        if workload is None:
            workload = _matrix_workload(query, False)
        workload = runner_workload(workload, AdWorkload)
        if query_kwargs is None:
            query_kwargs = default_query_kwargs(query, workload)
        result = run_ad_network(
            strategy,
            seed=seed,
            query=query,
            workload=workload,
            query_kwargs=query_kwargs,
            **kwargs,
        )
        return {"query": query, **result.summary()}, result, result.cluster

    return runner


def _matrix_workload(query: str, smoke: bool):
    from repro.apps.ad_network import AdWorkload

    # Group sizes are tuned per query so counts actually *cross* the
    # query's threshold throughout the run (a count that never crosses is
    # effectively monotone and hides the anomaly): most queries group per
    # ad, where ~3-4 clicks per ad against a low threshold produce
    # crossings spread over the whole stream; WINDOW splits each ad's
    # clicks over 4 windows, so it gets fewer, denser ads to keep its
    # per-(id, window) groups crossing too.
    campaigns, ads = (4, 3) if query == "WINDOW" else (8, 5)
    return AdWorkload(
        ad_servers=2,
        entries_per_server=60 if smoke else 80,
        batch_size=20,
        sleep=0.1,
        campaigns=campaigns,
        ads_per_campaign=ads,
        requests=6 if smoke else 8,
        report_replicas=2,
    )


def default_query_kwargs(query: str, workload) -> dict:
    """Report-module kwargs that make ``query`` interesting on ``workload``."""
    per_ad = workload.total_entries / (
        workload.campaigns * workload.ads_per_campaign
    )
    # WINDOW counts per (id, window) group; clicks spread over 4 windows
    per_group = per_ad / 4 if query == "WINDOW" else per_ad
    # scale the threshold so group counts *cross* it mid-run; below the
    # crossing the "poor performers" predicate is effectively monotone
    # and even uncoordinated replicas agree (the THRESH argument)
    return {"threshold": max(2, int(per_group * 0.75))}


def _matrix_run_params(query: str):
    def run_params(smoke: bool) -> dict:
        workload = _matrix_workload(query, smoke)
        return {
            "workload": workload,
            "query_kwargs": default_query_kwargs(query, workload),
        }

    return run_params


# Every session is TCP-backed (reliable_sessions=True below) and
# re-established after a peer restart, so the envelope includes a
# replica crash: faults perturb delivery order and timing, never
# durability.  The dup burst only touches kinds outside the reliable
# set — for these apps it is the control cell asserting exactly-once
# stays exact.
_MATRIX_SCHEDULES = (baseline(), reorder_burst(), dup_burst(), crash_restart("worker"))


def report_roles(cluster) -> dict[str, list[str]]:
    """Audit roles of an ad-network deployment, by process name."""
    names = sorted(process.name for process in cluster.network.processes)
    return {
        "worker": [n for n in names if n.startswith("report")],
        "source": [n for n in names if n.startswith("adserver")],
        "client": [n for n in names if n == "analyst"],
    }


def report_observe(outcome, _params: dict):
    """The oracle's view of one ad-network run (an ``AdNetworkResult``)."""
    from repro.chaos.oracle import RunObservation

    result = outcome.result
    return RunObservation(
        seed=outcome.seed,
        committed={
            node: result.committed_state(node) for node in result.report_nodes
        },
        emitted={node: result.responses(node) for node in result.report_nodes},
        truth=result.ground_truth_state(),
        order=result.sequencer_order() or None,
    )


def _build_query_app(name: str, query: str) -> BlazesApp:
    seal_attr = QUERY_SEAL_KEYS[query]
    return (
        figure4_app(
            name,
            query,
            description=f"Figure 6 {query} query on the ad network",
            runner=_query_runner(query),
            defaults={"reliable_sessions": True},
        )
        .strategy(
            "uncoordinated",
            # THRESH is the query that is *correct* uncoordinated —
            # that row of the matrix is its default deployment
            default=query == "THRESH",
            description="clicks broadcast straight to every replica",
        )
        .strategy(
            "sealed",
            coordinated=True,
            seals={"c": [seal_attr]},
            default=query != "THRESH",
            description=f"clickstream sealed per {seal_attr}, producers vote",
        )
        .strategy(
            "ordered",
            ordered=True,
            order_topic=ORDER_TOPIC,
            description="total order through the Zookeeper sequencer",
        )
        .audit_profile(
            strategies=MATRIX_STRATEGIES,
            horizon=0.3,
            schedules=_MATRIX_SCHEDULES,
            run_params=_matrix_run_params(query),
            roles=report_roles,
            observe=report_observe,
            workload_seed=7,
            envelope=reliable_sessions_envelope(),
        )
    )


for _name, _query in QUERY_MATRIX_APPS.items():
    register(_build_query_app(_name, _query))
