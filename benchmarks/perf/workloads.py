"""The seven workloads (four of them gated): fixed cell shapes, set-up, one pass, and checks.

Every workload drives only public functions of ``src/repro``.  A *pass*
is one execution of all of a workload's cells; an *operation* is one
cell.  The cell shapes are part of each workload's name — tune the
number of passes, never the cells.  ``repro`` is imported inside
``setup`` so that importing this module (the registry, the self-tests)
costs nothing and so that the import is part of measured set-up.
"""

from __future__ import annotations

import functools
import os
import random
import tempfile
import time
from typing import Any

from benchmarks.perf import layers
from benchmarks.perf.stats import Ops, Tracer, median, percentile

__all__ = ["WORKLOADS", "ShapeError", "Workload"]


class ShapeError(RuntimeError):
    """The workload did not exercise the path it exists to measure
    (e.g. a warm-cache pass that computed cells)."""


def _des_payload(outcome) -> dict[str, Any]:
    """The deterministic content of one DES run: its summary metrics
    (all simulated, no wall-clock timings) and its exact event counts."""
    network = outcome.cluster.network
    return {
        "metrics": {
            key: value
            for key, value in outcome.metrics.items()
            if key not in ("coordcost", "profile")
        },
        "fired": outcome.cluster.sim.fired,
        "sent": network.sent,
        "delivered": network.delivered,
    }


class Workload:
    """One workload.  ``setup`` builds inputs from the seed and warms the
    program; ``run_pass`` is the timed unit."""

    name = ""
    why = ""
    # fewest timed passes a run reports a median over
    min_passes = 3
    # DES workloads replay exactly: cell digests must repeat across passes
    deterministic = True
    # the pass is processor work, so the host's speed drift is divided out
    # (stats.Calibrator); False when the pass mostly waits on timers
    calibrated = True
    # listed in BENCHMARK.json, i.e. run by the driver's regression gate,
    # whose time limit buys four workloads at a run length that reads
    # steadily on the shared reference host; the other three are measured
    # by the front end (python -m benchmarks.perf) only.
    gated = True
    # layers whose direct drivers (layers.DRIVERS) run in the traced run
    drivers: tuple[str, ...] = ()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed preparation of one pass."""

    def run_pass(self, ops: Ops) -> list[tuple[str, Any]]:
        """Execute every cell once; return ``(cell, payload)`` per
        successful operation, ``payload`` being its deterministic content."""
        raise NotImplementedError

    def reference(self) -> dict[str, Any] | None:
        """Cell payloads every pass must reproduce, computed another way
        (untimed, after measurement); ``None`` when passes are only
        compared with each other."""
        return None

    # passes one ``traced_pass`` call performs
    traced_reps = 1

    def traced_pass(self, tracer: Tracer, ops: Ops) -> dict[str, float]:
        """One pass with spans around the calls into each layer; returns
        this workload's per-layer metrics."""
        raise NotImplementedError

    def derive(self, out: dict[str, float], walls: list[float], cpus: list[float]) -> None:
        """Add the metrics that combine untraced pass timings with the
        traced pass's counters."""
        fired = out.get("sim.events_fired")
        if fired:
            out["sim.us_per_event"] = median(walls) / fired * 1e6

    def teardown(self) -> None:
        """Stop everything ``setup`` started."""


# ----------------------------------------------------------------------
# app runs on the discrete-event simulator
# ----------------------------------------------------------------------
class AdnetPaper(Workload):
    name = "adnet-paper"
    why = (
        "The paper's Section VIII-B ad-reporting experiment (Fig. 12-13) at its real "
        "scale; the Bloom runtime does most of the work and the storm executor none."
    )
    drivers = ("bloom", "sim", "coord", "obs")

    SERVERS = (5, 10)
    STRATEGIES = ("uncoordinated", "seal", "independent-seal", "ordered")
    COORDINATED = frozenset(STRATEGIES[1:])
    SHAPE = dict(batch_size=50, sleep=0.25, campaigns=20, requests=12, report_replicas=3)

    def setup(self, seed: int) -> None:
        from repro.api import get_app
        from repro.apps.ad_network import AdWorkload

        self.seed = seed
        self.app = get_app("adnet")
        self.cells = [
            (
                f"{strategy}-s{servers}",
                strategy,
                AdWorkload(ad_servers=servers, entries_per_server=1000, **self.SHAPE),
            )
            for servers in self.SERVERS
            for strategy in self.STRATEGIES
        ]
        # warm-up: every strategy once at a tenth of the entries
        small = AdWorkload(ad_servers=5, entries_per_server=100, **self.SHAPE)
        for strategy in self.STRATEGIES:
            self._run(strategy, small)

    def _run(self, strategy, workload, telemetry=None):
        return self.app.run(
            strategy,
            workload=workload,
            seed=self.seed,
            workload_seed=self.seed,
            telemetry=telemetry,
        )

    def _invariant(self, outcome) -> str | None:
        metrics = outcome.metrics
        if outcome.strategy not in self.COORDINATED:
            return None
        if not metrics["replicas_agree"]:
            return "coordinated strategy but replicas disagree"
        if metrics["processed"] != metrics["total_entries"]:
            return f"processed {metrics['processed']} of {metrics['total_entries']} entries"
        return None

    def run_pass(self, ops: Ops) -> list[tuple[str, Any]]:
        cells = []
        for name, strategy, workload in self.cells:
            outcome = ops.attempt(
                name, functools.partial(self._run, strategy, workload), self._invariant
            )
            if outcome is not None:
                cells.append((name, _des_payload(outcome)))
        return cells

    def traced_pass(self, tracer: Tracer, ops: Ops) -> dict[str, float]:
        from repro.obs.telemetry import Telemetry

        counters = layers.DesCounters()
        out: dict[str, float] = {}
        for name, strategy, workload in self.cells:
            outcome = ops.attempt(
                name,
                lambda: tracer.call(
                    f"cell.{name}", name, self._run, strategy, workload, Telemetry()
                ),
                self._invariant,
            )
            if outcome is None:
                continue
            counters.add(outcome)
            if name in ("seal-s10", "ordered-s10", "uncoordinated-s10"):
                out[f"coord.sim_completion_s.{name}"] = outcome.metrics["completion_time"]
            if name in ("seal-s10", "ordered-s10"):
                out[f"coord.cell_s.{name}"] = tracer.durations(f"cell.{name}")[-1]
        out.update(counters.metrics())
        return out


class WordcountStorm(Workload):
    name = "wordcount-storm"
    why = (
        "Fig. 11's word count on the storm executor: executor, tuples and sim kernel do "
        "the work and Bloom none, so a Bloom optimisation must not move it."
    )
    drivers = ("sim",)

    MODES = ("sealed", "transactional", "eager")
    TOTAL_BATCHES = 64
    SHAPE = dict(workers=16, batch_size=100)

    def setup(self, seed: int) -> None:
        from repro.api import get_app

        self.seed = seed
        self.app = get_app("wordcount")
        # warm-up: every mode once at an eighth of the batches
        for mode in self.MODES:
            self._run(mode, total_batches=8)

    def _run(self, mode, total_batches=TOTAL_BATCHES, telemetry=None):
        return self.app.run(
            mode,
            total_batches=total_batches,
            seed=self.seed,
            telemetry=telemetry,
            **self.SHAPE,
        )

    def _invariant(self, outcome) -> str | None:
        acked = outcome.metrics["batches_acked"]
        if acked != self.TOTAL_BATCHES:
            return f"acked {acked} of {self.TOTAL_BATCHES} batches"
        return None

    def run_pass(self, ops: Ops) -> list[tuple[str, Any]]:
        cells = []
        for mode in self.MODES:
            outcome = ops.attempt(mode, functools.partial(self._run, mode), self._invariant)
            if outcome is not None:
                cells.append((mode, _des_payload(outcome)))
        return cells

    def traced_pass(self, tracer: Tracer, ops: Ops) -> dict[str, float]:
        from repro.obs.telemetry import Telemetry

        counters = layers.DesCounters()
        out: dict[str, float] = {}
        wall = 0.0
        for mode in self.MODES:
            outcome = ops.attempt(
                mode,
                lambda: tracer.call(
                    f"cell.{mode}", mode, self._run, mode, telemetry=Telemetry()
                ),
                self._invariant,
            )
            if outcome is None:
                continue
            counters.add(outcome)
            cell_s = tracer.durations(f"cell.{mode}")[-1]
            wall += cell_s
            out[f"storm.cell_s.{mode}"] = cell_s
            if mode != "eager":
                # simulated throughput is Fig. 11's result: host speed must not move it
                out[f"storm.sim_tuples_per_s.{mode}"] = outcome.metrics["throughput"]
        out.update(counters.metrics())
        if counters.storm["items_sent"]:
            out["storm.us_per_item"] = wall / counters.storm["items_sent"] * 1e6
        return out


# ----------------------------------------------------------------------
# the audit campaign, four ways
# ----------------------------------------------------------------------
class AuditGrid(Workload):
    name = "audit-grid"
    why = (
        "The command people and CI wait on (blazes audit --no-cache): all seven apps x "
        "strategies x fault schedules, serial and uncached; the only workload that runs chaos."
    )
    drivers = ("bloom", "sim", "coord", "chaos", "obs")

    apps: tuple[str, ...] | None = None
    smoke = False
    schedules: tuple[str, ...] | None = None
    backend: str | None = None
    # the library's default seeds (7, 11, 13) at --seed 7
    seed_offsets: tuple[int, ...] = (0, 4, 6)
    # what the staged (traced) pass does with each cell
    staged_mode = "compute"
    # how a timed pass evaluates the grid; a reference pass is always serial and uncached
    JOBS = 1
    cache = None

    def setup(self, seed: int) -> None:
        import repro.chaos.campaign  # noqa: F401  (registry load is part of set-up)

        self.seeds = tuple(seed + offset for offset in self.seed_offsets)
        self.report = None
        self.warm_up()

    def warm_up(self) -> None:
        # one seed of the three: every harness, analysis and schedule once
        self.cell_count = len(list(self.campaign(seeds=self.seeds[:1])))

    def campaign(self, *, seeds=None, jobs: int = 1, cache=None):
        from repro.chaos.campaign import audit_campaign

        return audit_campaign(
            self.apps,
            smoke=self.smoke,
            seeds=seeds or self.seeds,
            schedules=self.schedules,
            name=self.name,
            jobs=jobs,
            cache=cache,
            backend=self.backend,
        )

    def check_shape(self, engine: dict) -> None:
        if engine["computed"] != engine["cells"]:
            raise ShapeError(f"{self.name}: expected every cell computed, got {engine}")

    def cells_of(self, report, ops: Ops) -> list[tuple[str, Any]]:
        cells = []
        for result in report:
            unsound = result.metrics["status"] == "unsound"
            ops.record(result.name, "in-envelope cell is unsound" if unsound else None)
            if not unsound:
                cells.append(
                    (result.name, {"params": result.params, "metrics": result.metrics})
                )
        return cells

    def run_pass(self, ops: Ops) -> list[tuple[str, Any]]:
        try:
            report = ops.timed(lambda: self.campaign(jobs=self.JOBS, cache=self.cache))
        except Exception as exc:  # the whole campaign is one call: every cell of it failed
            for index in range(self.cell_count):
                ops.record(f"cell{index}", f"raised {type(exc).__name__}: {exc}")
            return []
        self.check_shape(report.engine)
        self.report = report
        return self.cells_of(report, ops)

    def traced_pass(self, tracer: Tracer, ops: Ops) -> dict[str, float]:
        if self.report is None:
            raise ShapeError(f"{self.name}: no untraced pass to stage cells from")
        out = layers.campaign_metrics(self.report)
        out.update(
            layers.staged_cells(
                tracer,
                ops,
                self.report,
                mode=self.staged_mode,
                backend=self.backend or "sim",
            )
        )
        return out


class AuditPool(AuditGrid):
    name = "audit-pool"
    why = (
        "The same grid on two warm pool workers with a cache cleared before each pass "
        "(78 computed, 78 writes, 0 hits): dispatch, chunking, merge and put cost here only."
    )
    drivers = ("chaos",)
    # two workers and the parent on two cores measure the host's
    # scheduler as much as the program
    gated = False
    staged_mode = "put"
    JOBS = 2

    def warm_up(self) -> None:
        from repro.exec import CellCache, shared_pool

        self.cache = CellCache(tempfile.mkdtemp(prefix="perf-pool-cache-"))
        started = time.perf_counter()
        shared_pool(self.JOBS).run(os.getpid, [{}] * self.JOBS, chunksize=1)
        self.spawn_s = time.perf_counter() - started
        self.cell_count = len(list(self.campaign(seeds=self.seeds[:1], jobs=self.JOBS)))

    def before_pass(self) -> None:
        self.cache.clear()

    def check_shape(self, engine: dict) -> None:
        super().check_shape(engine)
        if engine["cache_hits"] or engine["pool"] is None:
            raise ShapeError(f"{self.name}: expected a pooled pass with no cache hits, got {engine}")

    def reference(self) -> dict[str, Any]:
        started = time.perf_counter()
        report = self.campaign()
        self.serial_s = time.perf_counter() - started
        return dict(self.cells_of(report, Ops()))

    def derive(self, out, walls, cpus) -> None:
        super().derive(out, walls, cpus)
        out["exec.pool.spawn_s"] = self.spawn_s
        out["exec.pool.speedup"] = self.serial_s / median(walls)

    def teardown(self) -> None:
        from repro.exec import shutdown_shared_pool

        shutdown_shared_pool()


class AuditWarm(AuditGrid):
    name = "audit-warm"
    why = (
        "The same grid served entirely from a cache filled in set-up (78 reads, 0 computed): "
        "cache get, canonical form and report assembly are the whole pass."
    )
    drivers = ()
    # even calibrated, its 12 ms pass spreads twice as wide between runs
    # as the gated workloads do (13 % against 6-9 % on a noisy day)
    gated = False
    staged_mode = "get"
    traced_reps = layers.GET_REPS
    min_passes = 20

    def warm_up(self) -> None:
        from repro.exec import CellCache

        self.cache = CellCache(tempfile.mkdtemp(prefix="perf-warm-cache-"))
        fill = self.campaign(cache=self.cache)  # computed serially: the reference
        self.cell_count = len(list(fill))
        self.filled = dict(self.cells_of(fill, Ops()))
        self.campaign(cache=self.cache)

    def check_shape(self, engine: dict) -> None:
        if engine["computed"] or engine["cache_hits"] != engine["cells"]:
            raise ShapeError(f"{self.name}: expected every cell read from the cache, got {engine}")

    def reference(self) -> dict[str, Any]:
        return self.filled

    def derive(self, out, walls, cpus) -> None:
        super().derive(out, walls, cpus)
        out["exec.cache.pass_ms_p95"] = (percentile(walls, 95) or 0.0) * 1e3


class SocketAudit(AuditGrid):
    name = "socket-audit"
    why = (
        "kvs and wordcount audit cells over loopback TCP with the default NetConfig: the "
        "net layer, where most of the wall is quiescence waiting; DES workloads bypass it."
    )
    drivers = ("net",)
    deterministic = False
    calibrated = False
    # one pass is 8 s of timer waits: the gate's time is better spent on
    # the processor-bound workloads
    gated = False
    min_passes = 1

    apps = ("kvs", "wordcount")
    smoke = True
    backend = "socket"
    seed_offsets = (0,)
    # 15 cells; the three schedules keep a reordering and a retransmitting
    # fault while one pass stays inside a run's time budget
    schedules = ("baseline", "reorder-burst", "split-link")

    def warm_up(self) -> None:
        from repro.api import get_app
        from repro.chaos.harnesses import harness_for

        get_app("kvs").run(backend="socket", smoke=True, seed=self.seeds[0])
        self.cell_count = sum(
            len(harness.strategies)
            * sum(1 for schedule in harness.schedules if schedule.name in self.schedules)
            for harness in (harness_for(app, smoke=True) for app in self.apps)
        )

    def derive(self, out, walls, cpus) -> None:
        super().derive(out, walls, cpus)
        out["net.wait_s"] = median(walls) - median(cpus)
        out["net.cpu_share"] = median(cpus) / median(walls)


# ----------------------------------------------------------------------
# the static analysis
# ----------------------------------------------------------------------
class AnalyzeScale(Workload):
    name = "analyze-scale"
    why = (
        "Time to a verdict (contribution (a)): label analysis of generated chains, fan-in "
        "trees and gossip cycles at 200 and 800 components; the only workload where core works."
    )
    min_passes = 5

    SIZES = (200, 800)

    def setup(self, seed: int) -> None:
        from repro.core import analyze

        self.analyze = analyze
        rng = random.Random(f"analyze-scale:{seed}")
        self.flows = [
            (f"{builder.__name__.lstrip('_')}{size}", builder(size, rng), size)
            for builder in (_chain, _fan, _cycles)
            for size in self.SIZES
        ]
        # warm-up: the small flows only
        for _, flow, size in self.flows:
            if size == self.SIZES[0]:
                analyze(flow)

    @staticmethod
    def _payload(result) -> dict[str, str]:
        return {name: str(label) for name, label in result.stream_labels.items()}

    def _cell(self, ops: Ops, name, flow, expected, call):
        def invariant(result) -> str | None:
            labeled = len(result.outputs)
            if labeled != expected:
                return f"labeled {labeled} interfaces, generator made {expected}"
            return None

        return ops.attempt(name, call, invariant)

    def run_pass(self, ops: Ops) -> list[tuple[str, Any]]:
        cells = []
        for name, flow, expected in self.flows:
            result = self._cell(ops, name, flow, expected, functools.partial(self.analyze, flow))
            if result is not None:
                cells.append((name, self._payload(result)))
        return cells

    def traced_pass(self, tracer: Tracer, ops: Ops) -> dict[str, float]:
        out: dict[str, float] = {"core.interfaces_labeled": 0}
        for name, flow, expected in self.flows:
            result = self._cell(
                ops,
                name,
                flow,
                expected,
                lambda: tracer.call(f"core.analyze.{name}", name, self.analyze, flow),
            )
            if result is None:
                continue
            out["core.interfaces_labeled"] += len(result.outputs)
            if name in ("chain800", "fan800", "cycles800", "chain200"):
                out[f"core.analyze_ms.{name}"] = (
                    tracer.durations(f"core.analyze.{name}")[-1] * 1e3
                )
        return out


# The three generators are copied from bench_ablation_analyzer_scaling.py
# (this benchmark must not change when that script is ported or deleted);
# the label mix is drawn from the seed instead of from the index.
def _chain(n: int, rng: random.Random):
    from repro.core import CW, OW, Dataflow

    flow = Dataflow(f"chain-{n}")
    for i in range(n):
        comp = flow.add_component(f"c{i}")
        comp.add_path("in", "out", OW("k") if rng.random() < 1 / 3 else CW())
    flow.add_stream("src", dst=("c0", "in"), seal=["k"])
    for i in range(n - 1):
        flow.add_stream(f"s{i}", src=(f"c{i}", "out"), dst=(f"c{i+1}", "in"))
    flow.add_stream("sink", src=(f"c{n-1}", "out"))
    return flow


def _fan(n: int, rng: random.Random):
    from repro.core import CR, CW, Dataflow

    flow = Dataflow(f"fan-{n}")
    sink = flow.add_component("sink")
    sink.add_path("in", "out", CW())
    for i in range(n - 1):
        comp = flow.add_component(f"leaf{i}")
        comp.add_path("in", "out", CR() if rng.random() < 2 / 3 else CW())
        flow.add_stream(f"src{i}", dst=(f"leaf{i}", "in"))
        flow.add_stream(f"s{i}", src=(f"leaf{i}", "out"), dst=("sink", "in"))
    flow.add_stream("out", src=("sink", "out"))
    return flow


def _cycles(n: int, rng: random.Random):
    """A chain of two-component cycles (each pair gossips)."""
    from repro.core import CR, CW, Dataflow

    flow = Dataflow(f"cycles-{n}")
    pairs = max(1, n // 2)
    for i in range(pairs):
        a = flow.add_component(f"a{i}")
        a.add_path("in", "out", CW())
        a.add_path("peer", "out", CW())
        b = flow.add_component(f"b{i}")
        b.add_path("in", "out", CR() if rng.random() < 1 / 3 else CW())
        flow.add_stream(f"ab{i}", src=(f"a{i}", "out"), dst=(f"b{i}", "in"))
        flow.add_stream(f"ba{i}", src=(f"b{i}", "out"), dst=(f"a{i}", "peer"))
    flow.add_stream("src", dst=("a0", "in"))
    for i in range(pairs - 1):
        flow.add_stream(f"next{i}", src=(f"b{i}", "out"), dst=(f"a{i+1}", "in"))
    flow.add_stream("sink", src=(f"b{pairs-1}", "out"))
    return flow


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        AdnetPaper,
        WordcountStorm,
        AuditGrid,
        AuditPool,
        AuditWarm,
        SocketAudit,
        AnalyzeScale,
    )
}
