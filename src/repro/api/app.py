"""The :class:`BlazesApp` façade: one object per application.

A Blazes application is declared **once** — its components (annotated via
:func:`repro.api.annotate` or analyzable as Bloom modules), its stream
wiring, and its deployment strategies — and everything else is derived
from that single declaration:

* ``app.dataflow()`` / ``app.spec()`` — the grey-box
  :class:`~repro.core.graph.Dataflow` (and its YAML rendering) extracted
  from the declared components, with Bloom modules analyzed white-box and
  cross-checked against any declared labels;
* ``app.analyze()`` / ``app.plan()`` — the label analysis and the
  synthesized coordination plan for a chosen strategy;
* ``app.run(strategy)`` — execution on the matching simulator backend;
  the runner receives the resolved :class:`StrategySpec` and installs
  what it declares (:meth:`StrategySpec.installed`);
* ``app.audit_spec`` — the :class:`AuditProfile` the fault-injection
  campaign of :mod:`repro.chaos.campaign` sweeps the app by.

Apps are registered (:func:`repro.api.register`) so the CLI, the
benchmarks, and the audit enumerate one catalog instead of hardcoding
names.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.api.annotate import crosscheck_module, declared_annotations
from repro.core.annotations import parse_annotation
from repro.core.fd import FDSet
from repro.core.graph import Dataflow
from repro.core.labels import Label, max_label
from repro.errors import ApiError, SocketTimeout

__all__ = ["AuditProfile", "BlazesApp", "RunOutcome", "StrategySpec"]


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """One deployment regime of an app.

    ``seals`` seals streams for the analysis side (stream name -> seal
    key attributes); for Storm-backed apps the keys are spout names, matching
    :func:`repro.storm.adapter.topology_to_dataflow`.  ``run_params`` are
    extra keyword arguments merged into every ``app.run`` call under this
    strategy — the declarative encoding of what the strategy changes about
    the deployment.

    ``ordered`` marks a strategy whose runner routes the app's input
    streams through the coordination service's sequencer (paper Section
    V-B2).  On the analysis side it changes what the app *predicts*:
    ``app.plan`` returns the :func:`repro.core.strategy.ordered_plan`
    (an :class:`~repro.core.strategy.OrderStrategy` on ``order_topic`` per
    order-sensitive component) and ``app.predicted_label`` caps the raw
    sink label at ``Async`` via
    :func:`repro.core.strategy.label_under_ordering` — deterministic
    given the recorded sequencer order, which the audit's
    order-conditioned oracle then compares runs against.
    """

    name: str
    coordinated: bool = False
    ordered: bool = False
    seals: Mapping[str, Sequence[str]] = dataclasses.field(default_factory=dict)
    run_params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    description: str = ""
    order_topic: str = ""

    def installed(self, component: str, streams: Mapping[str, str]):
        """The strategy object this deployment installs at ``component``.

        ``streams`` maps the component's declared input streams to their
        runtime names.  The result is what a Bloom runner hands to both
        halves of :mod:`repro.bloom.rewrite`: the sequencer on
        ``order_topic`` when ``ordered``, the seal protocol on the streams
        ``seals`` punctuates, otherwise nothing.  It is the app's plan
        entry for the component wherever the analysis asks for
        coordination; a deployment may also impose its regime on a
        confluent component (the THRESH row of the Figure 6 matrix),
        where the plan needs nothing.
        """
        from repro.core.strategy import NoCoordination, OrderStrategy, SealStrategy

        if self.ordered:
            return OrderStrategy(
                component, tuple(streams.values()), topic=self.order_topic
            )
        sealed = tuple(
            (runtime, frozenset(self.seals[stream]))
            for stream, runtime in streams.items()
            if self.seals.get(stream)
        )
        if sealed:
            return SealStrategy(component, sealed, ())
        return NoCoordination(component)


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """The uniform result of ``BlazesApp.run``.

    ``metrics`` is a JSON-able summary (what the CLI prints and CI
    archives); ``result`` the backend-specific result object
    (:class:`~repro.storm.metrics.RunMetrics`,
    :class:`~repro.apps.ad_network.AdNetworkResult`, ...); ``cluster`` the
    finished simulated cluster for state inspection.
    """

    app: str
    strategy: str
    seed: int
    backend: str
    metrics: dict[str, Any]
    result: Any
    cluster: Any
    # The telemetry hub the run was instrumented with (None when the run
    # was uninstrumented); carries the span tracker for rundirs/trace.
    telemetry: Any = dataclasses.field(default=None, compare=False, repr=False)
    # Which execution backend carried the messages: "sim" (discrete-event
    # kernel) or "socket" (real TCP transport, repro.net).  ``backend``
    # above is the app substrate (storm/bloom) — orthogonal axes.
    transport: str = "sim"

    def to_dict(self) -> dict[str, Any]:
        """The JSON-serializable view of this outcome."""
        return {
            "app": self.app,
            "strategy": self.strategy,
            "seed": self.seed,
            "backend": self.backend,
            "transport": self.transport,
            "metrics": dict(self.metrics),
        }


@dataclasses.dataclass(frozen=True)
class AuditProfile:
    """How the fault-injection campaign drives one app.

    ``strategies`` are the regimes the audit sweeps (at least one
    coordinated and one uncoordinated); ``schedules`` the fault
    schedules inside the app's fault-tolerance envelope (the same at
    every tier); ``horizon`` the virtual-time scale normalized schedules
    stretch over; ``run_params(smoke)`` the workload kwargs for
    ``app.run``, with the ``workload_seed`` that pins the generated
    workload so different network seeds explore delivery interleavings
    of one input set.

    What a run is observed by is declared (:mod:`repro.chaos.harnesses`
    reads it): ``roles`` maps the schedule role vocabulary (``worker`` /
    ``source`` / ``client`` / ...) to a process name, bare or indexed
    (``"analyst"`` names ``analyst``, ``"report"`` names ``report0``,
    ``report1``, ..., ``"Count"`` the Storm tasks ``Count#0``, ...); a
    Bloom app declares ``committed = (role, {table: tag})``, the tables
    each of the role's processes commits, each row prefixed by its tag
    (``None``: kept as is), and ``emitted = (role, output_interface)``,
    whose history each emits.  A Storm app declares neither: its one
    replica is its terminal bolt's merged store.  ``truth(outcome, params)``
    is the ground-truth committed set (``None``: no exactly-once contract).

    ``envelope`` declares the app's fault-tolerance assumptions as a
    :class:`~repro.chaos.envelope.FaultEnvelope`; the campaign classifies
    cells whose schedule falls outside it as ``out-of-envelope`` (never
    ``unsound``) and the chaos search generates composite schedules
    inside it only.  ``None`` means unrestricted.
    """

    strategies: tuple[str, ...]
    horizon: float
    schedules: tuple
    run_params: Callable[[bool], dict[str, Any]]
    roles: Mapping[str, str]
    truth: Callable[[RunOutcome, dict[str, Any]], Any]
    committed: tuple[str, Mapping[str, str | None]] | None = None
    emitted: tuple[str, str] | None = None
    envelope: Any = None


@dataclasses.dataclass(frozen=True)
class _ComponentDecl:
    name: str
    factory: Callable[[], Any] | None
    rep: bool


@dataclasses.dataclass(frozen=True)
class _StreamDecl:
    name: str
    src: tuple[str, str] | None
    dst: tuple[str, str] | None


def _endpoint(value: Any, stream: str, side: str) -> tuple[str, str] | None:
    from repro.core.spec import parse_endpoint
    from repro.errors import SpecError

    try:
        return parse_endpoint(value, stream, side)
    except SpecError as exc:
        raise ApiError(str(exc)) from None


class BlazesApp:
    """A registered Blazes application: declare once, derive everything."""

    def __init__(
        self,
        name: str,
        *,
        backend: str,
        description: str = "",
        runner: Callable[..., tuple[dict[str, Any], Any, Any]] | None = None,
        defaults: Mapping[str, Any] | None = None,
        smoke_defaults: Mapping[str, Any] | None = None,
    ) -> None:
        if backend not in ("storm", "bloom"):
            raise ApiError(f"unknown backend {backend!r}; have storm, bloom")
        self.name = name
        self.backend = backend
        self.description = description
        self._runner = runner
        self._defaults = dict(defaults or {})
        self._smoke_defaults = dict(smoke_defaults or {})
        self._topology_factory: Callable[[str], Any] | None = None
        self._components: list[_ComponentDecl] = []
        self._streams: list[_StreamDecl] = []
        self._strategies: dict[str, StrategySpec] = {}
        self._default_strategy: str | None = None
        self.audit_spec: AuditProfile | None = None
        # the module whose import registers this app, stamped by
        # repro.api.register(); process-pool audit workers import it
        # before resolving the registry, so apps registered outside
        # repro.apps still work across process boundaries
        self.origin_module: str | None = None
        # component name -> (instance, ModuleAnalysis | None); factories are
        # fixed at declaration time, so the white-box analysis (and its
        # cross-check) runs once per component, not once per analyze() call
        self._instances: dict[str, tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # declaration (fluent: every method returns self)
    # ------------------------------------------------------------------
    def topology(self, factory: Callable[[str], Any]) -> "BlazesApp":
        """Declare a Storm topology factory: ``factory(strategy) -> Topology``.

        The dataflow is extracted with
        :func:`repro.storm.adapter.topology_to_dataflow`, the strategy's
        ``seals`` naming the punctuated spouts.  Mutually exclusive with
        :meth:`component`/:meth:`stream` declarations.
        """
        if self.backend != "storm":
            raise ApiError(f"app {self.name!r}: topology() needs the storm backend")
        self._topology_factory = factory
        return self

    def component(
        self,
        name: str,
        factory: Callable[[], Any],
        *,
        rep: bool = False,
    ) -> "BlazesApp":
        """Declare one component of a bloom/grey-box dataflow.

        ``factory`` builds the component instance: a
        :class:`~repro.bloom.module.BloomModule` is analyzed white-box
        (and cross-checked against any ``@annotate`` declarations on it);
        anything else contributes its ``@annotate`` annotations directly.
        """
        if any(decl.name == name for decl in self._components):
            raise ApiError(f"app {self.name!r}: duplicate component {name!r}")
        self._components.append(_ComponentDecl(name, factory, rep))
        return self

    def stream(
        self,
        name: str,
        *,
        frm: Any = None,
        to: Any = None,
    ) -> "BlazesApp":
        """Declare one stream; endpoints are ``"Component.interface"``.
        A strategy's ``seals`` seals it."""
        if any(decl.name == name for decl in self._streams):
            raise ApiError(f"app {self.name!r}: duplicate stream {name!r}")
        self._streams.append(
            _StreamDecl(name, _endpoint(frm, name, "from"), _endpoint(to, name, "to"))
        )
        return self

    def strategy(
        self,
        name: str,
        *,
        coordinated: bool = False,
        ordered: bool = False,
        seals: Mapping[str, Sequence[str]] | None = None,
        run_params: Mapping[str, Any] | None = None,
        default: bool = False,
        description: str = "",
        order_topic: str = "",
    ) -> "BlazesApp":
        """Declare one deployment strategy (see :class:`StrategySpec`)."""
        if name in self._strategies:
            raise ApiError(f"app {self.name!r}: duplicate strategy {name!r}")
        if ordered and seals:
            raise ApiError(
                f"app {self.name!r}: strategy {name!r} cannot both seal and "
                f"impose ordering"
            )
        self._strategies[name] = StrategySpec(
            name,
            coordinated=coordinated or ordered,
            ordered=ordered,
            seals=dict(seals or {}),
            run_params=dict(run_params or {}),
            description=description,
            order_topic=order_topic,
        )
        if default or self._default_strategy is None:
            self._default_strategy = name
        return self

    def audit_profile(self, **kwargs: Any) -> "BlazesApp":
        """Attach the audit profile (see :class:`AuditProfile`)."""
        schedules = kwargs.get("schedules")
        if not isinstance(schedules, (tuple, list)):
            raise ApiError(
                f"app {self.name!r}: audit schedules must be a tuple or list "
                f"of fault schedules, got {type(schedules).__name__}"
            )
        profile = AuditProfile(**{**kwargs, "schedules": tuple(schedules)})
        # a Bloom profile declares both; a Storm one neither (its replica is one store)
        declared = [d for d in (profile.committed, profile.emitted) if d is not None]
        if len(declared) != 2 * (self.backend == "bloom") or any(
            role not in profile.roles for role, _ in declared
        ):
            raise ApiError(
                f"app {self.name!r}: a Bloom audit profile, and only a Bloom one, "
                f"declares what a role's replicas commit and emit (committed=, emitted=)"
            )
        for strategy in profile.strategies:
            self.strategy_spec(strategy)  # validates the names
        if profile.envelope is not None:
            # the default sweep must audit inside the app's own model:
            # a declared schedule outside the declared envelope is a
            # profile bug, caught at declaration time
            for schedule in profile.schedules:
                broken = profile.envelope.violations(schedule)
                if broken:
                    raise ApiError(
                        f"app {self.name!r}: default schedule "
                        f"{schedule.name!r} violates the declared "
                        f"envelope: {broken[0]}"
                    )
        self.audit_spec = profile
        return self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def strategies(self) -> tuple[str, ...]:
        """Declared strategy names, in declaration order."""
        return tuple(self._strategies)

    @property
    def default_strategy(self) -> str:
        if self._default_strategy is None:
            raise ApiError(f"app {self.name!r} declares no strategies")
        return self._default_strategy

    @property
    def auditable(self) -> bool:
        """True when the app carries an audit profile."""
        return self.audit_spec is not None


    def strategy_spec(self, name: str | None = None) -> StrategySpec:
        """Resolve a strategy name (``None`` = the default) to its spec."""
        name = name if name is not None else self.default_strategy
        try:
            return self._strategies[name]
        except KeyError:
            raise ApiError(
                f"app {self.name!r} has no strategy {name!r}; "
                f"have {list(self._strategies)}"
            ) from None

    # ------------------------------------------------------------------
    # derivation: spec -> analysis -> plan
    # ------------------------------------------------------------------
    def dataflow(self, strategy: str | None = None) -> Dataflow:
        """The logical dataflow under one strategy's stream annotations."""
        spec = self.strategy_spec(strategy)
        if self._topology_factory is not None:
            from repro.storm.adapter import topology_to_dataflow

            seals = {spout: list(key) for spout, key in spec.seals.items()}
            return topology_to_dataflow(
                self._topology_factory(spec.name), seals=seals
            )
        if not self._components:
            raise ApiError(
                f"app {self.name!r} declares neither a topology nor components"
            )
        flow = Dataflow(self.name)
        self._attach_components(flow)
        for decl in self._streams:
            flow.add_stream(
                decl.name, src=decl.src, dst=decl.dst, seal=spec.seals.get(decl.name)
            )
        flow.validate()
        return flow

    def _component_instance(self, decl: _ComponentDecl) -> tuple[Any, Any]:
        """``(instance, analysis)`` for one declaration, cached.

        ``analysis`` is the cross-checked white-box
        :class:`~repro.bloom.analysis.ModuleAnalysis` for Bloom modules
        and ``None`` otherwise.
        """
        if decl.name not in self._instances:
            from repro.bloom.module import BloomModule

            instance = decl.factory()
            analysis = None
            if isinstance(instance, BloomModule):
                from repro.bloom.analysis import analyze_module

                analysis = analyze_module(instance)
                crosscheck_module(instance, analysis)
            self._instances[decl.name] = (instance, analysis)
        return self._instances[decl.name]

    def _attach_components(self, flow: Dataflow) -> None:
        for decl in self._components:
            instance, analysis = self._component_instance(decl)
            if analysis is not None:
                from repro.bloom.analysis import attach_component

                attach_component(
                    flow, instance, name=decl.name, rep=decl.rep, analysis=analysis
                )
                continue
            entries = declared_annotations(instance)
            if not entries:
                raise ApiError(
                    f"app {self.name!r}: component {decl.name!r} carries no "
                    f"annotations (use @annotate)"
                )
            component = flow.add_component(decl.name, rep=decl.rep)
            for entry in entries:
                component.add_path(
                    str(entry["from"]),
                    str(entry["to"]),
                    parse_annotation(entry["label"], entry.get("subscript")),
                )

    def fds(self) -> FDSet:
        """Functional dependencies: the white-box identity FDs of the
        components (a grey-box spec declares its own, ``core/spec.py``)."""
        fds = FDSet()
        for decl in self._components:
            _instance, analysis = self._component_instance(decl)
            if analysis is not None:
                fds = fds.merged(analysis.fds)
        return fds

    def spec(self, strategy: str | None = None) -> str:
        """The YAML grey-box spec derived from the declaration."""
        from repro.core.spec import dump_spec

        return dump_spec(self.dataflow(strategy), self.fds())

    def analyze(self, strategy: str | None = None):
        """Run the label analysis for one strategy's dataflow."""
        from repro.core.analysis import analyze

        return analyze(self.dataflow(strategy), self.fds())

    def plan(self, strategy: str | None = None):
        """The coordination plan for one strategy.

        Seal-annotated strategies synthesize their plan with
        :func:`~repro.core.strategy.choose_strategies`; an ``ordered``
        strategy *imposes* the sequencer instead, so its plan is the
        :func:`~repro.core.strategy.ordered_plan` over the analysis.
        """
        from repro.core.strategy import choose_strategies, ordered_plan

        spec = self.strategy_spec(strategy)
        if spec.ordered:
            return ordered_plan(self.analyze(strategy), topic=spec.order_topic)
        return choose_strategies(self.analyze(strategy))

    def predicted_label(self, strategy: str | None = None) -> Label:
        """The worst sink label the analysis predicts for a strategy.

        For an ``ordered`` strategy the raw label is capped at ``Async``
        (:func:`~repro.core.strategy.label_under_ordering`): the sequencer
        makes replicas and replays deterministic given its recorded order.
        """
        from repro.core.strategy import label_under_ordering

        spec = self.strategy_spec(strategy)
        label = max_label(self.analyze(strategy).sink_labels.values())
        if spec.ordered:
            label = label_under_ordering(label)
        return label

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        strategy: str | None = None,
        *,
        seed: int = 0,
        smoke: bool = False,
        telemetry: Any = None,
        backend: str | None = None,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> RunOutcome:
        """Execute the app under one strategy and return a :class:`RunOutcome`.

        Keyword precedence, lowest to highest: app defaults, smoke
        defaults (when ``smoke=True``), the strategy's ``run_params``,
        then the caller's ``kwargs``.

        ``telemetry`` opts the run into observability: the
        :class:`repro.obs.Telemetry` hub is scoped around the runner (so
        the cluster it builds reports through it) and the outcome's
        metrics gain a ``coordcost`` block — plus a ``profile`` snapshot
        when the hub carries a profiler.  Instrumentation is observe-only:
        trace rows, virtual time, and events fired are byte-identical to
        an uninstrumented run.

        ``backend`` picks the execution backend: ``"sim"`` (the
        discrete-event kernel, the default) or ``"socket"`` (the real TCP
        transport of :mod:`repro.net`).  ``timeout`` bounds a socket run
        in wall seconds — on expiry the services tear down cleanly and
        :class:`repro.errors.SocketTimeout` is raised.
        """
        import time

        from repro.net.context import net_config
        from repro.sim.events import run_scope

        if self._runner is None:
            raise ApiError(f"app {self.name!r} declares no runner")
        config = net_config(backend, timeout)
        exec_backend = "sim" if config is None else "socket"
        spec = self.strategy_spec(strategy)
        params: dict[str, Any] = dict(self._defaults)
        if smoke:
            params.update(self._smoke_defaults)
        params.update(spec.run_params)
        params.update(kwargs)

        def outcome(metrics, result=None, cluster=None) -> RunOutcome:
            return RunOutcome(
                self.name, spec.name, seed, self.backend, metrics, result, cluster,
                telemetry, exec_backend,
            )

        started = time.perf_counter()
        try:
            with run_scope(telemetry, config):
                metrics, result, cluster = self._runner(spec, seed=seed, **params)
        except SocketTimeout as exc:
            # what the torn-down run can still attest to: its identity
            # and how far it got before the budget hit
            exc.outcome = outcome(
                {
                    "timed_out": True,
                    "timeout": exc.timeout,
                    "virtual_time": exc.virtual_time,
                    "events_fired": exc.fired,
                    "events_pending": exc.pending,
                }
            )
            raise
        elapsed = time.perf_counter() - started
        metrics = dict(metrics)
        if telemetry is not None:
            from repro.obs.coordcost import coordcost_report

            network = getattr(cluster, "network", None)
            sent = network.sent if network is not None else None
            metrics["coordcost"] = coordcost_report(telemetry, messages_sent=sent)
            if telemetry.profiler is not None:
                telemetry.profiler.wall_seconds += elapsed
                metrics["profile"] = telemetry.profiler.snapshot()
        if config is not None:
            summary = getattr(
                getattr(cluster, "network", None), "transport_summary", None
            )
            if summary is not None:
                metrics["transport"] = summary()
        return outcome(metrics, result, cluster)

    def __repr__(self) -> str:
        return (
            f"BlazesApp({self.name!r}, backend={self.backend!r}, "
            f"strategies={list(self._strategies)})"
        )
