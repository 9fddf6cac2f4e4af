"""The streaming word-count topology (paper Figure 2).

Tweets are drawn from a Zipf-distributed vocabulary, batched, and randomly
partitioned to ``Splitter`` tasks; words hash-partition to ``Count`` tasks,
which tally per-``(word, batch)`` frequencies; at the end of a batch the
counts flow to ``Commit`` tasks that record them in a backing store keyed
by ``(word, batch)`` — idempotent under replay, which is exactly why the
paper's analysis says the topology needs no global commit ordering once
the input stream is sealed on ``batch``.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Callable

from repro.api import BlazesApp, annotate, register
from repro.chaos.envelope import replay_envelope
from repro.chaos.schedule import (
    baseline,
    crash_restart,
    dup_burst,
    loss_burst,
    reorder_burst,
    split_link,
)
from repro.core.graph import Dataflow
from repro.errors import StormError
from repro.storm.adapter import topology_to_dataflow
from repro.storm.executor import ClusterConfig, StormCluster
from repro.storm.metrics import RunMetrics, collect_metrics
from repro.storm.topology import Bolt, Spout, Topology, TopologyBuilder
from repro.storm.tuples import Fields

__all__ = [
    "APP",
    "TweetSpout",
    "SplitterBolt",
    "CountBolt",
    "CommitBolt",
    "EagerCountBolt",
    "EagerCommitBolt",
    "build_wordcount_topology",
    "wordcount_dataflow",
    "run_wordcount",
    "reference_counts",
    "eager_reference_totals",
]


# the synthetic vocabulary's size and Zipf exponent
VOCABULARY_SIZE = 500
ZIPF_S = 1.1


class ZipfVocabulary:
    """A Zipf(s) distribution over a synthetic vocabulary.

    Word ``w{i}`` has probability proportional to ``1 / (i+1)**s`` — the
    usual heavy-tailed shape of natural-language word frequencies.
    """

    def __init__(self) -> None:
        weights = [1.0 / (i + 1) ** ZIPF_S for i in range(VOCABULARY_SIZE)]
        total = sum(weights)
        self.words = [f"w{i}" for i in range(VOCABULARY_SIZE)]
        self._cdf: list[float] = []
        cumulative = 0.0
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def sample(self, rng: random.Random) -> str:
        return self.words[bisect.bisect_left(self._cdf, rng.random())]


# Words in one synthetic tweet.
WORDS_PER_TWEET = 3


class TweetSpout(Spout):
    """Emits batches of synthetic tweets; replay-deterministic.

    A batch's contents are a pure function of ``(seed, batch_id)``, so a
    replayed batch is byte-identical to the original — the redelivery
    contract Storm's fault tolerance requires.
    """

    output_fields = Fields("tweet")

    def __init__(
        self,
        *,
        total_batches: int,
        batch_size: int = 50,
        seed: int = 0,
    ) -> None:
        self.total_batches = total_batches
        self.batch_size = batch_size
        self.vocabulary = ZipfVocabulary()
        self.seed = seed

    def next_batch(self, batch_id: int) -> list[tuple] | None:
        if batch_id >= self.total_batches:
            return None
        rng = random.Random(f"{self.seed}:{batch_id}")
        batch = []
        for _ in range(self.batch_size):
            words = [self.vocabulary.sample(rng) for _ in range(WORDS_PER_TWEET)]
            batch.append((" ".join(words),))
        return batch


@annotate(frm="tweets", to="words", label="CR")
class SplitterBolt(Bolt):
    """Divides tweets into their constituent words (confluent, stateless)."""

    output_fields = Fields("word")

    def execute(self, tup, emit) -> None:
        for word in tup[0].split():
            emit((word,))


@annotate(frm="words", to="counts", label="OW", subscript=["word", "batch"])
class CountBolt(Bolt):
    """Tallies word occurrences within the current batch.

    Stateful and order-sensitive in general — but sealable on
    ``(word, batch)``, which is the annotation the paper assigns it.
    """

    output_fields = Fields("word", "batch", "count")

    def __init__(self) -> None:
        self._counts: dict[tuple[str, int], int] = {}

    def execute(self, tup, emit) -> None:
        key = (tup[0], tup.batch)
        self._counts[key] = self._counts.get(key, 0) + 1

    def finish_batch(self, batch_id: int, emit) -> None:
        for (word, batch), count in sorted(self._counts.items()):
            if batch == batch_id:
                emit((word, batch, count))
        self._counts = {
            key: count for key, count in self._counts.items() if key[1] != batch_id
        }

    def reset_batch(self, batch_id: int) -> None:
        """A replay superseded this batch: discard its partial tallies."""
        self._counts = {
            key: count for key, count in self._counts.items() if key[1] != batch_id
        }


@annotate(frm="counts", to="db", label="CW")
class CommitBolt(Bolt):
    """Records per-batch word frequencies in a backing store.

    The store is keyed by ``(word, batch)``: appends are idempotent under
    replay, so the component is confluent-stateful (``CW``).
    """

    output_fields = Fields()

    def __init__(self) -> None:
        self.store: dict[tuple[str, int], int] = {}
        self._pending: dict[int, list[tuple]] = {}

    def execute(self, tup, emit) -> None:
        word, batch, count = tup.values
        self._pending.setdefault(batch, []).append((word, batch, count))

    def finish_batch(self, batch_id: int, emit) -> None:
        for word, batch, count in self._pending.pop(batch_id, []):
            self.store[(word, batch)] = count

    def reset_batch(self, batch_id: int) -> None:
        self._pending.pop(batch_id, None)


@annotate(frm="words", to="counts", label="OW", subscript=["word"])
class EagerCountBolt(Bolt):
    """The *unsealed* counter: emits a running total on every word.

    This is the topology the paper warns about (Section VI-A without the
    batch seal): the cumulative counter spans batches, so the stream of
    ``(word, total)`` records depends on the interleaving of batches and
    replay attempts — order-sensitive with gate ``{word}`` and nothing
    protecting it.
    """

    output_fields = Fields("word", "count")

    def __init__(self) -> None:
        self._totals: dict[str, int] = {}

    def execute(self, tup, emit) -> None:
        word = tup[0]
        self._totals[word] = self._totals.get(word, 0) + 1
        emit((word, self._totals[word]))


@annotate(frm="counts", to="db", label="OW", subscript=["word"])
class EagerCommitBolt(Bolt):
    """Last-writer-wins commit of running totals (order-sensitive).

    The store is keyed by ``word`` alone and overwritten on every record:
    whichever total arrives last sticks.  Cross-batch and cross-attempt
    races make the final store a function of delivery order — the ``Run``
    anomaly the unsealed analysis predicts, made observable.
    """

    output_fields = Fields()

    def __init__(self) -> None:
        self.store: dict[str, int] = {}

    def execute(self, tup, emit) -> None:
        word, count = tup.values
        self.store[word] = count


def build_wordcount_topology(
    *,
    workers: int = 5,
    total_batches: int = 20,
    batch_size: int = 50,
    seed: int = 0,
    eager: bool = False,
) -> Topology:
    """Wire the Figure 2 topology for a given cluster size.

    ``eager=True`` swaps in the unsealed, order-sensitive variant
    (:class:`EagerCountBolt`/:class:`EagerCommitBolt`): the same shape,
    but cumulative counts committed last-writer-wins — the uncoordinated
    deployment whose analysis predicts ``Run``.
    """
    spouts = committers = max(1, workers // 2)
    builder = TopologyBuilder("wordcount-eager" if eager else "wordcount")
    builder.set_spout(
        "tweets",
        lambda: TweetSpout(
            total_batches=total_batches, batch_size=batch_size, seed=seed
        ),
        parallelism=spouts,
    )
    builder.set_bolt("Splitter", SplitterBolt, parallelism=workers).shuffle_grouping(
        "tweets"
    )
    count_bolt = EagerCountBolt if eager else CountBolt
    commit_bolt = EagerCommitBolt if eager else CommitBolt
    builder.set_bolt("Count", count_bolt, parallelism=workers).fields_grouping(
        "Splitter", "word"
    )
    builder.set_bolt("Commit", commit_bolt, parallelism=committers).fields_grouping(
        "Count", "word"
    )
    return builder.build()


def wordcount_dataflow(*, sealed: bool) -> Dataflow:
    """The grey-box dataflow of the word-count topology."""
    topology = build_wordcount_topology(workers=1, total_batches=1)
    seals = {"tweets": ["batch"]} if sealed else None
    return topology_to_dataflow(topology, seals=seals)


def reference_counts(
    total_batches: int, batch_size: int, seed: int = 0
) -> dict[tuple[str, int], int]:
    """Ground truth: sequentially count the spout's words per batch."""
    spout = TweetSpout(total_batches=total_batches, batch_size=batch_size, seed=seed)
    counts: dict[tuple[str, int], int] = {}
    for batch in range(total_batches):
        for (tweet,) in spout.next_batch(batch):
            for word in tweet.split():
                key = (word, batch)
                counts[key] = counts.get(key, 0) + 1
    return counts


def eager_reference_totals(
    total_batches: int, batch_size: int, seed: int = 0
) -> dict[str, int]:
    """Ground truth for the eager variant: total occurrences per word.

    This is what an exactly-once, order-insensitive deployment would
    commit; the eager topology only matches it by luck.
    """
    totals: dict[str, int] = {}
    for (word, _batch), count in reference_counts(
        total_batches, batch_size, seed
    ).items():
        totals[word] = totals.get(word, 0) + count
    return totals


def run_wordcount(
    *,
    workers: int = 5,
    total_batches: int = 20,
    batch_size: int = 50,
    transactional: bool = False,
    seed: int = 0,
    drop_prob: float = 0.0,
    replay_timeout: float | None = None,
    max_events: int | None = None,
    frame_size: int = 1,
    parallelism: dict[str, int] | None = None,
    eager: bool = False,
    chaos: Callable[[StormCluster], None] | None = None,
    workload_seed: int | None = None,
) -> tuple[RunMetrics, StormCluster]:
    """Execute the topology and return (metrics, finished cluster).

    ``transactional=True`` is the paper's conservative deployment: batch
    commits serialize through the coordinator and Zookeeper.  With
    ``transactional=False`` the topology relies on batch sealing alone,
    which Blazes proves sufficient for deterministic replay.

    ``frame_size`` batches channel delivery (tuples per simulated
    message); ``parallelism`` overrides per-component replica counts,
    e.g. ``{"Count": 8}``.

    ``eager`` runs the unsealed, order-sensitive topology variant, and
    ``chaos`` is the fault-injection hook: it receives the built (not yet
    running) cluster, so a ``repro.chaos`` schedule can arm its faults on
    the cluster's network before the first event.
    ``workload_seed`` (defaulting to ``seed``) pins the generated tweets,
    so several ``seed`` values can explore delivery interleavings of one
    workload — the cross-run comparison the chaos oracle performs.
    """
    for name, value in (("batch_size", batch_size), ("total_batches", total_batches)):
        if not value >= 1:  # NaN fails too
            raise StormError(f"{name} must be >= 1, got {value}")
    workload_seed = seed if workload_seed is None else workload_seed
    topology = build_wordcount_topology(
        workers=workers,
        total_batches=total_batches,
        batch_size=batch_size,
        seed=workload_seed,
        eager=eager,
    )
    config = ClusterConfig(
        seed=seed,
        transactional=transactional,
        drop_prob=drop_prob,
        replay_timeout=replay_timeout,
        frame_size=frame_size,
        parallelism=parallelism,
        exec_times={
            "Splitter": 0.0002,
            "Count": 0.0001,
            "Commit": 0.0001,
        },
    )
    cluster = StormCluster(topology, config)
    if chaos is not None:
        chaos(cluster)
    cluster.run(max_events=max_events)
    return collect_metrics(cluster, batch_size), cluster


# ----------------------------------------------------------------------
# the registered app (repro.api)
# ----------------------------------------------------------------------
def _run_app(_strategy: str, *, seed: int = 0, **kwargs):
    """Runner adapter: strategy differences arrive via ``run_params``."""
    metrics, cluster = run_wordcount(seed=seed, **kwargs)
    summary = {
        "batches_acked": metrics.batches_acked,
        "duration": metrics.duration,
        "throughput": metrics.throughput,
        "mean_batch_latency": metrics.mean_batch_latency,
        "replays": metrics.replays,
        "messages_sent": metrics.messages_sent,
    }
    return summary, metrics, cluster


# Replay-based fault tolerance is on, so the full chaos menu applies:
# crashes, loss, duplication, partitions, and reorder bursts are all
# healed by batch replay — for the sealed topology.
_AUDIT_SCHEDULES = (
    baseline(),
    reorder_burst(),
    dup_burst(),
    crash_restart(),
    loss_burst(),
    split_link("splitter"),
)


def _audit_run_params(smoke: bool) -> dict:
    return {
        "workers": 2,
        "total_batches": 4 if smoke else 6,
        "batch_size": 10 if smoke else 12,
        "replay_timeout": 0.6,
        "max_events": 2_000_000,
        "workload_seed": 0,
    }


def _audit_truth(outcome, params: dict) -> frozenset:
    """What an exactly-once run commits, as the rows the harness reads off
    the store: ``(word, batch, count)``, or ``(word, total)`` when eager."""
    workload = params["total_batches"], params["batch_size"], params["workload_seed"]
    if outcome.strategy == "eager":
        return frozenset(eager_reference_totals(*workload).items())
    return frozenset(
        (word, batch, count)
        for (word, batch), count in reference_counts(*workload).items()
    )


APP = register(
    BlazesApp(
        "wordcount",
        backend="storm",
        description="Storm streaming word count (paper Figure 2)",
        runner=_run_app,
        smoke_defaults={"workers": 2, "total_batches": 3, "batch_size": 10},
    )
    .topology(
        lambda strategy: build_wordcount_topology(
            workers=1, total_batches=1, eager=strategy == "eager"
        )
    )
    .strategy(
        "sealed",
        coordinated=True,
        seals={"tweets": ["batch"]},
        default=True,
        description="batch-sealed input; no global commit ordering needed",
    )
    .strategy(
        "transactional",
        coordinated=True,
        seals={"tweets": ["batch"]},
        run_params={"transactional": True},
        description="conservative deployment: commits serialized via Zookeeper",
    )
    .strategy(
        "eager",
        run_params={"eager": True},
        description="unsealed cumulative counts, last-writer-wins commits",
    )
    .audit_profile(
        strategies=("sealed", "eager"),
        horizon=0.03,
        schedules=_AUDIT_SCHEDULES,
        run_params=_audit_run_params,
        roles={"source": "tweets", "splitter": "Splitter", "worker": "Count", "sink": "Commit"},
        truth=_audit_truth,
        envelope=replay_envelope(),
    )
)
