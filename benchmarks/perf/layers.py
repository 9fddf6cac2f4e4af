"""The per-layer ledger, measured from outside three ways.

**(T) staged spans** — :func:`staged_cells` performs each audit cell as
the same sequence of public calls the campaign's cell function makes,
one span per call.  **(C) exact counters** the program already exposes
— :class:`DesCounters`, :func:`campaign_metrics`.  **(D) layer
drivers** — :data:`DRIVERS`, short direct loops over one layer's public
API, timed per call.  Times inside a DES run interleave in the event
loop and cannot be split from outside; that needs spans inside the
program, a later change.

:data:`PER_LAYER` is the closed registry of metric names; a workload
that does not exercise a layer reports 0 for that layer's metrics.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from collections import Counter
from typing import Any

from benchmarks.perf.stats import Ops, Tracer, median, percentile

__all__ = [
    "DRIVERS",
    "DesCounters",
    "END_TO_END",
    "PER_LAYER",
    "campaign_metrics",
    "staged_cells",
]

# (name, unit, better, bound): what a user of the system sees.  Both
# times are divided by the host's slowdown measured beside them
# (stats.Calibrator), which brings their run-to-run spread on the shared
# reference host from 10-40 % down to 3-10 % (README, "Measured
# steadiness"); the bound leaves room for the widest of those.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

# (name, unit, better).  Unit "count" marks an exact counter: on a DES
# workload it must repeat exactly between two runs of the same tree.
PER_LAYER = (
    # bloom
    ("bloom.tick_us_p50", "us", "lower"),
    ("bloom.tick_us_p95", "us", "lower"),
    ("bloom.first_tick_ms", "ms", "lower"),
    ("bloom.rows_per_s", "1/s", "higher"),
    ("bloom.ticks", "count", "lower"),
    ("bloom.events", "count", "lower"),
    # sim
    ("sim.kernel.events_per_s", "1/s", "higher"),
    ("sim.kernel.heap_watermark", "count", "lower"),
    ("sim.network.sends_per_s", "1/s", "higher"),
    ("sim.events_fired", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.network.sent", "count", "lower"),
    ("sim.network.delivered", "count", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.network.duplicated", "count", "lower"),
    ("sim.network.retried", "count", "lower"),
    # storm
    ("storm.cell_s.sealed", "s", "lower"),
    ("storm.cell_s.transactional", "s", "lower"),
    ("storm.cell_s.eager", "s", "lower"),
    ("storm.us_per_item", "us", "lower"),
    ("storm.tuples_emitted", "count", "lower"),
    ("storm.frames_sent", "count", "lower"),
    ("storm.items_sent", "count", "lower"),
    ("storm.replays", "count", "lower"),
    ("storm.batches_acked", "count", "higher"),
    ("storm.sim_tuples_per_s.sealed", "1/s", "higher"),
    ("storm.sim_tuples_per_s.transactional", "1/s", "higher"),
    # coord
    ("coord.seal_votes", "count", "lower"),
    ("coord.seal_releases", "count", "lower"),
    ("coord.zk_reads", "count", "lower"),
    ("coord.sequencer_commits", "count", "lower"),
    ("coord.messages", "count", "lower"),
    ("coord.share", "ratio", "lower"),
    ("coord.sim_completion_s.seal-s10", "s", "lower"),
    ("coord.sim_completion_s.ordered-s10", "s", "lower"),
    ("coord.sim_completion_s.uncoordinated-s10", "s", "lower"),
    ("coord.vote_round_us", "us", "lower"),
    ("coord.cell_s.ordered-s10", "s", "lower"),
    ("coord.cell_s.seal-s10", "s", "lower"),
    # core
    ("core.analyze_ms.chain800", "ms", "lower"),
    ("core.analyze_ms.fan800", "ms", "lower"),
    ("core.analyze_ms.cycles800", "ms", "lower"),
    ("core.analyze_ms.chain200", "ms", "lower"),
    ("core.interfaces_labeled", "count", "higher"),
    ("core.predicted_us", "us", "lower"),
    # chaos
    ("chaos.run_s", "s", "lower"),
    ("chaos.oracle_classify_us_p50", "us", "lower"),
    ("chaos.schedule_compile_us", "us", "lower"),
    ("chaos.cells", "count", "higher"),
    ("chaos.runs", "count", "higher"),
    ("chaos.unsound_cells", "count", "lower"),
    ("chaos.out_of_envelope_cells", "count", "lower"),
    ("chaos.tight_cells", "count", "higher"),
    # obs
    ("obs.telemetry_overhead_ratio", "ratio", "lower"),
    # exec
    ("exec.engine.overhead_ms_per_cell", "ms", "lower"),
    ("exec.canon.digest_us_p50", "us", "lower"),
    ("exec.cache.key_us_p50", "us", "lower"),
    ("exec.cache.put_us_p50", "us", "lower"),
    ("exec.cache.get_us_p50", "us", "lower"),
    ("exec.cache.get_us_p95", "us", "lower"),
    ("exec.cache.pass_ms_p95", "ms", "lower"),
    ("exec.cache.hits", "count", "higher"),
    ("exec.cache.misses", "count", "lower"),
    ("exec.cache.store_bytes", "B", "lower"),
    ("exec.pool.spawn_s", "s", "lower"),
    ("exec.pool.utilization", "ratio", "higher"),
    ("exec.pool.busy_s", "s", "lower"),
    ("exec.pool.chunks", "count", "lower"),
    ("exec.pool.speedup", "ratio", "higher"),
    # net
    ("net.wait_s", "s", "lower"),
    ("net.cpu_share", "ratio", "higher"),
    ("net.cell_s.kvs_p50", "s", "lower"),
    ("net.cell_s.wordcount_p50", "s", "lower"),
    ("net.frames.encode_us_p50", "us", "lower"),
    ("net.frames.decode_us_p50", "us", "lower"),
    ("net.frames.bytes_per_msg", "B", "lower"),
    ("net.transport.frames_sent", "count", "lower"),
    ("net.transport.bytes_sent", "B", "lower"),
    ("net.transport.acks_sent", "count", "lower"),
    ("net.transport.retransmits", "count", "lower"),
    ("net.transport.reconnects", "count", "lower"),
    ("net.transport.dedups", "count", "lower"),
    # the harness itself: how far to trust the spans
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# (C) exact counters
# ----------------------------------------------------------------------
class DesCounters:
    """Exact counters of finished DES runs, summed over a pass's cells."""

    NETWORK = ("sent", "delivered", "dropped", "duplicated", "retried")
    STORM = ("tuples_emitted", "frames_sent", "items_sent", "replays", "batches_acked")
    DECISIONS = {
        "coord.seal_votes": "seal_vote",
        "coord.seal_releases": "seal_release",
        "coord.zk_reads": "zk_read",
        "coord.sequencer_commits": "sequencer",
    }

    def __init__(self) -> None:
        self.fired = 0
        self.network: Counter[str] = Counter()
        self.storm: Counter[str] = Counter()
        self.decisions: Counter[str] = Counter()
        self.bloom_ticks = 0
        self.bloom_messages = 0
        self.coord_messages = 0
        self.messages = 0
        self.transport: Counter[str] = Counter()

    def add(self, outcome) -> None:
        """Fold one :class:`repro.api.RunOutcome` (run with telemetry)."""
        cluster = outcome.cluster
        self.fired += cluster.sim.fired
        for field in self.NETWORK:
            self.network[field] += getattr(cluster.network, field)
        for field in self.STORM:
            self.storm[field] += getattr(outcome.result, field, 0)
        for node in getattr(cluster, "nodes", ()):
            runtime = getattr(node, "runtime", None)
            if runtime is not None:
                self.bloom_ticks += runtime.tick_count
        cost = outcome.metrics.get("coordcost")
        if cost:
            self.decisions.update(cost["decisions"])
            self.coord_messages += cost["coordination_messages"]
            self.messages += cost["messages_sent"]
            self.bloom_messages += sum(
                count for kind, count in cost["kinds"].items() if kind.startswith("bloom.")
            )
        for key, value in (outcome.metrics.get("transport") or {}).items():
            if isinstance(value, int):
                self.transport[key] += value

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {
            "sim.events_fired": self.fired,
            "bloom.ticks": self.bloom_ticks,
            "bloom.events": self.bloom_messages,
            "coord.messages": self.coord_messages,
            "coord.share": self.coord_messages / self.messages if self.messages else 0.0,
        }
        for field in self.NETWORK:
            out[f"sim.network.{field}"] = self.network[field]
        for field in self.STORM:
            out[f"storm.{field}"] = self.storm[field]
        for name, decision in self.DECISIONS.items():
            out[name] = self.decisions[decision]
        for field in ("frames_sent", "bytes_sent", "acks_sent", "retransmits", "reconnects", "dedups"):
            out[f"net.transport.{field}"] = self.transport[field]
        return out


def campaign_metrics(report) -> dict[str, float]:
    """Counters of one ``audit_campaign`` report and its engine block."""
    results = list(report)
    engine = report.engine
    statuses = Counter(result.metrics["status"] for result in results)
    out: dict[str, float] = {
        "chaos.cells": len(results),
        "chaos.runs": sum(result.metrics["runs"] for result in results),
        "chaos.unsound_cells": statuses["unsound"],
        "chaos.out_of_envelope_cells": statuses["out-of-envelope"],
        "chaos.tight_cells": sum(bool(result.metrics["tight"]) for result in results),
        "exec.cache.hits": engine["cache_hits"],
        "exec.cache.misses": engine["cache_misses"],
    }
    # engine overhead: the evaluate() wall not spent inside cells; cached
    # cells carry their original compute wall, so only computed cells count
    cell_wall = sum(result.wall_seconds for result in results) if engine["computed"] else 0.0
    pool = engine["pool"]
    if pool:
        cell_wall = pool["busy_seconds"] / pool["jobs"]
        out["exec.pool.utilization"] = pool["utilization"]
        out["exec.pool.busy_s"] = pool["busy_seconds"]
        out["exec.pool.chunks"] = pool["chunks"]
    out["exec.engine.overhead_ms_per_cell"] = (
        (engine["wall_seconds"] - cell_wall) / len(results) * 1e3
    )
    if engine["cache"]:
        out["exec.cache.store_bytes"] = engine["cache"]["size_bytes"]
    for app in ("kvs", "wordcount"):
        walls = [r.wall_seconds for r in results if r.params["app"] == app]
        if walls and results[0].params["backend"] == "socket":
            out[f"net.cell_s.{app}_p50"] = median(walls)
    return out


# ----------------------------------------------------------------------
# (T) staged spans
# ----------------------------------------------------------------------
# Passes of a staged "get" run: 3 x 78 reads are the 200 samples a p95 needs.
GET_REPS = 3


def _p50_us(tracer: Tracer, name: str) -> float:
    durations = tracer.durations(name)
    return median(durations) * 1e6 if durations else 0.0


def staged_cells(
    tracer: Tracer,
    ops: Ops,
    report,
    *,
    mode: str,
    backend: str,
) -> dict[str, float]:
    """Perform every cell of ``report`` as its sequence of public calls.

    ``mode`` is ``"compute"`` (harness, prediction, runs, oracle, digest),
    ``"put"`` (the same plus cache key and write) or ``"get"`` (cache key
    and read of cells stored beforehand, :data:`GET_REPS` times).  Each
    staged verdict must equal the one ``audit_campaign`` returned for
    that cell; a mismatch is a failed operation.
    """
    from repro.chaos.envelope import cell_status
    from repro.chaos.harnesses import harness_for
    from repro.chaos.oracle import classify_runs
    from repro.chaos.schedule import schedule_from_dict
    from repro.exec import CellCache, content_digest

    store = tempfile.mkdtemp(prefix="perf-staged-cache-")
    cache = CellCache(store)
    results = list(report)
    counters = DesCounters()

    # what a real network lets a run observe varies from run to run, so a
    # socket cell must reproduce the soundness verdict, not the observation
    verdict_keys = ("predicted", "sound", "status") + (("observed",) if backend == "sim" else ())

    def verdict_of(metrics) -> tuple:
        return tuple(metrics[key] for key in verdict_keys)

    def fields_of(result) -> dict[str, Any]:
        return {"kind": "audit-cell", **result.params}

    def compute(result) -> dict[str, Any]:
        params = result.params
        cell = result.name
        harness = tracer.call(
            "chaos.harness_for", cell, harness_for,
            params["app"], smoke=params["smoke"], backend=backend,
        )
        if params.get("schedule_spec") is not None:
            schedule = schedule_from_dict(params["schedule_spec"])
        else:
            schedule = harness.schedule_named(params["schedule"])
        violations = harness.envelope.violations(schedule) if harness.envelope else ()
        predicted = tracer.call("core.predicted", cell, harness.predicted, params["strategy"])
        observations = []
        for seed in params["seeds"]:
            observation, outcome = tracer.call(
                "run.observe_outcome", cell,
                harness.observe_outcome, params["strategy"], schedule, seed,
            )
            observations.append(observation)
            counters.add(outcome)
        verdict = tracer.call("chaos.classify_runs", cell, classify_runs, observations)
        sound = verdict.sound_for(predicted)
        return {
            "predicted": str(predicted),
            "observed": str(verdict.observed),
            "sound": sound,
            "status": cell_status(sound, violations),
        }

    def staged(result) -> tuple:
        cell = result.name
        if mode == "get":
            key = tracer.call("exec.cache.key", cell, cache.key, fields_of(result))
            metrics = tracer.call("exec.cache.get", cell, cache.get, key)["metrics"]
        else:
            metrics = compute(result)
        tracer.call("exec.canon.digest", cell, content_digest, metrics)
        if mode == "put":
            fields = fields_of(result)
            key = tracer.call("exec.cache.key", cell, cache.key, fields)
            tracer.call(
                "exec.cache.put", cell, cache.put, key, result.metrics,
                wall_seconds=result.wall_seconds, fields=fields,
            )
        return verdict_of(metrics)

    def check(result):
        expected = verdict_of(result.metrics)

        def invariant(got) -> str | None:
            if got != expected:
                return f"staged verdict {got} differs from the campaign's {expected}"
            return None

        ops.attempt(
            result.name,
            lambda: tracer.call("cell", result.name, staged, result),
            invariant,
        )

    try:
        if mode == "get":
            for result in results:
                cache.put(
                    cache.key(fields_of(result)), result.metrics,
                    wall_seconds=result.wall_seconds,
                )
        for _ in range(GET_REPS if mode == "get" else 1):
            for result in results:
                check(result)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    out = {
        "core.predicted_us": _p50_us(tracer, "core.predicted"),
        "chaos.run_s": sum(tracer.durations("run.observe_outcome")),
        "chaos.oracle_classify_us_p50": _p50_us(tracer, "chaos.classify_runs"),
        "exec.canon.digest_us_p50": _p50_us(tracer, "exec.canon.digest"),
        "exec.cache.key_us_p50": _p50_us(tracer, "exec.cache.key"),
        "exec.cache.put_us_p50": _p50_us(tracer, "exec.cache.put"),
        "exec.cache.get_us_p50": _p50_us(tracer, "exec.cache.get"),
        "exec.cache.get_us_p95": (percentile(tracer.durations("exec.cache.get"), 95) or 0.0) * 1e6,
    }
    if mode != "get":
        out.update(counters.metrics())
    return out


# ----------------------------------------------------------------------
# (D) layer drivers
# ----------------------------------------------------------------------
def _noop() -> None:
    pass


def drive_bloom(seed: int) -> dict[str, float]:
    """One CAMPAIGN reporting replica: 5 x 1000 click rows, 50 per tick."""
    from repro.apps.queries import make_report_module
    from repro.bloom.runtime import BloomRuntime

    rng = random.Random(f"perf-bloom:{seed}")
    rows = [
        (f"c{campaign}", rng.randrange(4), f"ad{campaign}-{rng.randrange(5)}", f"s{server}-{index}")
        for server in range(5)
        for index in range(1000)
        for campaign in (rng.randrange(20),)
    ]
    rng.shuffle(rows)
    requests = [(f"q{index}", f"ad{index % 20}-{index % 5}") for index in range(12)]
    ticks: list[float] = []
    firsts: list[float] = []
    for _ in range(5):
        runtime = BloomRuntime(make_report_module("CAMPAIGN"))
        runtime.insert("request", requests)
        first = len(ticks)
        for start in range(0, len(rows), 50):
            runtime.insert("click", rows[start : start + 50])
            began = time.perf_counter()
            runtime.tick()
            ticks.append(time.perf_counter() - began)
        firsts.append(ticks[first])
    return {
        "bloom.tick_us_p50": median(ticks) * 1e6,
        "bloom.tick_us_p95": (percentile(ticks, 95) or 0.0) * 1e6,
        "bloom.first_tick_ms": median(firsts) * 1e3,
        "bloom.rows_per_s": 5 * len(rows) / sum(ticks),
    }


def drive_sim(seed: int) -> dict[str, float]:
    """A 200 000-event post/schedule/cancel storm over 50 actors, then
    50 000 lossless ``Network.send`` between 4 no-op processes."""
    from repro.sim import Network, Process, SimProfiler, make_simulator

    sim = make_simulator(seed=seed)
    budget = [200_000]

    def actor(tag: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        timeout = sim.schedule(5.0, _noop)
        sim.post(sim.rng.random(), actor, tag)
        timeout.cancel()

    for tag in range(50):
        sim.post(sim.rng.random(), actor, tag)
    profiler = SimProfiler()
    with profiler.observe(sim):
        sim.run()

    class Sink(Process):
        def recv(self, msg) -> None:
            pass

    sim = make_simulator(seed=seed)
    network = Network(sim)
    names = [network.register(Sink(f"p{index}")).name for index in range(4)]
    sends = 50_000
    began = time.perf_counter()
    for index in range(sends):
        network.send(names[index % 4], names[(index + 1) % 4], "perf.ping", index)
    sim.run()
    elapsed = time.perf_counter() - began
    return {
        "sim.kernel.events_per_s": profiler.events_per_second,
        "sim.kernel.heap_watermark": profiler.heap_watermark,
        "sim.network.sends_per_s": sends / elapsed,
    }


def drive_coord(seed: int) -> dict[str, float]:
    """One seal voting round: 10 producers x 100 partitions."""
    from repro.coord import SealedStreamProducer, SealManager
    from repro.sim import LatencyModel, Network, Process, make_simulator

    class Producer(Process):
        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.out = SealedStreamProducer(self, "s")

        def recv(self, msg) -> None:
            pass

    class Consumer(Process):
        def __init__(self, name: str, producers: frozenset) -> None:
            super().__init__(name)
            self.released = 0
            self.seals = SealManager("s", self._release, producers_for=lambda partition: producers)

        def _release(self, partition, records) -> None:
            self.released += 1

        def recv(self, msg) -> None:
            self.seals.handle(msg)

    partitions = 100
    sim = make_simulator(seed=seed)
    network = Network(sim, latency=LatencyModel(base=0.001, jitter=0.005))
    producers = [network.register(Producer(f"p{index}")) for index in range(10)]
    consumer = network.register(Consumer("c", frozenset(p.name for p in producers)))

    def drive() -> None:
        for partition in range(partitions):
            for producer in producers:
                for record in range(5):
                    producer.out.send_record("c", partition, (partition, record))
                producer.out.seal("c", partition)

    sim.schedule(0.0, drive)
    began = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - began
    if consumer.released != partitions:
        raise RuntimeError(f"seal round released {consumer.released} of {partitions} partitions")
    return {"coord.vote_round_us": elapsed / partitions * 1e6}


def drive_chaos(seed: int) -> dict[str, float]:
    """Compile (scale to the app horizon and digest) every default schedule."""
    from repro.chaos.harnesses import audit_apps, harness_for
    from repro.exec.cache import schedule_digest

    harnesses = [harness_for(app) for app in audit_apps()]
    samples = []
    for _ in range(20):
        for harness in harnesses:
            for schedule in harness.schedules:
                began = time.perf_counter()
                schedule_digest(schedule.scaled(harness.horizon))
                samples.append(time.perf_counter() - began)
    return {"chaos.schedule_compile_us": median(samples) * 1e6}


def drive_obs(seed: int) -> dict[str, float]:
    """One adnet seal cell at 5 servers, with span telemetry and without."""
    from repro.api import get_app
    from repro.apps.ad_network import AdWorkload
    from repro.obs.telemetry import Telemetry

    app = get_app("adnet")
    workload = AdWorkload(
        ad_servers=5, entries_per_server=1000, batch_size=50, sleep=0.25,
        campaigns=20, requests=12, report_replicas=3,
    )

    def cell(telemetry) -> float:
        began = time.perf_counter()
        app.run("seal", workload=workload, seed=seed, workload_seed=seed, telemetry=telemetry)
        return time.perf_counter() - began

    plain, traced = [], []
    for _ in range(5):
        plain.append(cell(None))
        traced.append(cell(Telemetry(spans=True)))
    return {"obs.telemetry_overhead_ratio": median(traced) / median(plain)}


def drive_net(seed: int) -> dict[str, float]:
    """Encode and decode 2 000 wire frames of messages captured from a
    DES kvs run and a DES wordcount run."""
    from repro.api import get_app
    from repro.net.frames import decode_value, encode_value, make_codec, pack_frame

    captured: list = []

    def tap(cluster) -> None:
        cluster.network.observe(captured.append)

    get_app("kvs").run(smoke=True, seed=seed, chaos=tap)
    get_app("wordcount").run("sealed", smoke=True, seed=seed, chaos=tap)
    messages = [captured[index % len(captured)] for index in range(2000)]
    dumps, loads = make_codec("json")
    encode, decode, sizes = [], [], []
    for uid, msg in enumerate(messages):
        began = time.perf_counter()
        frame = {
            "src": msg.src, "dst": msg.dst, "kind": msg.kind,
            "payload": encode_value(msg.payload), "uid": uid, "sent": 0.0, "at": 0.0,
        }
        data = pack_frame(frame, dumps)
        middle = time.perf_counter()
        decode_value(loads(data[4:])["payload"])
        end = time.perf_counter()
        encode.append(middle - began)
        decode.append(end - middle)
        sizes.append(len(data))
    return {
        "net.frames.encode_us_p50": median(encode) * 1e6,
        "net.frames.decode_us_p50": median(decode) * 1e6,
        "net.frames.bytes_per_msg": median(sizes),
    }


DRIVERS = {
    "bloom": drive_bloom,
    "sim": drive_sim,
    "coord": drive_coord,
    "chaos": drive_chaos,
    "obs": drive_obs,
    "net": drive_net,
}
