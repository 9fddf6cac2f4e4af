"""The generic adapter between the campaign runner and registered apps.

Historically every audit app carried its own hand-written harness class;
the three wiring paths (spec for predictions, builders for execution,
harness shims for observation) are now collapsed into the app's single
:class:`~repro.api.BlazesApp` declaration.  :class:`AppHarness` is the one
adapter left: it reads the app's :class:`~repro.api.AuditProfile` and

* takes **predictions** from ``app.analyze(strategy)`` — the same label
  analysis ``blazes analyze`` prints, on the same derived dataflow;
* **executes** one (strategy, schedule, seed) cell through ``app.run``,
  arming the fault schedule via the runner's ``chaos`` hook with each
  role it targets (``worker`` is a stateful processing replica, ``source``
  a producer, ``client`` the request driver, ``splitter`` / ``sink`` /
  ``cache`` app-specific stages) resolved once per run through the
  profile's ``roles``;
* **observes** the finished run through the profile's declarations
  (:func:`replicas`, which takes a cluster, not an app), the app's
  ``truth`` and, for an ordered strategy, the sequencer order recorded on
  its ``order_topic``, yielding the
  :class:`~repro.chaos.oracle.RunObservation` the oracle classifies.

``harness_for(name)`` resolves the app registry, so the campaign sweeps
whatever is registered — no per-app code lives here anymore.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.chaos.oracle import RunObservation
from repro.chaos.schedule import FaultSchedule
from repro.coord.zookeeper import recorded_order
from repro.core.labels import Label
from repro.errors import ApiError, SimulationError

__all__ = ["AppHarness", "audit_apps", "harness_for", "replicas"]


class AppHarness:
    """Drive one registered app's audit profile."""

    def __init__(
        self,
        app,
        *,
        smoke: bool = False,
        backend: str = "sim",
        timeout: float | None = None,
    ) -> None:
        if app.audit_spec is None:
            raise SimulationError(f"app {app.name!r} has no audit profile")
        self.app = app
        self.smoke = smoke
        self.backend = backend
        self.timeout = timeout
        self.profile = app.audit_spec
        self.name = app.name
        self.strategies: tuple[str, ...] = self.profile.strategies
        self.coordinated = frozenset(
            name
            for name in self.profile.strategies
            if app.strategy_spec(name).coordinated
        )
        self.schedules: tuple[FaultSchedule, ...] = self.profile.schedules
        self.horizon: float = self.profile.horizon

    @property
    def envelope(self):
        """The app's declared fault envelope (``None`` = unrestricted)."""
        return self.profile.envelope

    def role_pool(self) -> tuple[str, ...]:
        """Roles the app's own schedules target — known-resolvable names.

        The search layer draws crash/partition targets from this pool:
        any role a default schedule uses is guaranteed to resolve on the
        app's cluster, without declaring the vocabulary twice.
        """
        names: set[str] = set()
        for schedule in self.schedules:
            names.update(schedule.roles)
        return tuple(sorted(names))

    def predicted(self, strategy: str) -> Label:
        """The analysis verdict: worst label over the app's sink streams."""
        return self.app.predicted_label(strategy)

    def observe(
        self, strategy: str, schedule: FaultSchedule, seed: int
    ) -> RunObservation:
        """Run one campaign cell and extract its observation.

        The run itself is closed (:meth:`repro.sim.network.Network.close`)
        before the observation is returned: nothing else of it is kept.
        """
        observation, outcome = self.observe_outcome(strategy, schedule, seed)
        outcome.cluster.network.close()
        return observation

    def observe_outcome(
        self, strategy: str, schedule: FaultSchedule, seed: int
    ) -> tuple[RunObservation, object]:
        """Like :meth:`observe`, but also return the raw run outcome.

        The run carries a telemetry hub with span tracing, so the
        observation comes back with :attr:`RunObservation.spans` populated
        (the oracle uses it to attach causal slices to anomaly verdicts)
        and the outcome's metrics embed the run's ``coordcost`` block.
        """
        from repro.obs.telemetry import Telemetry

        params = self.profile.run_params(self.smoke)
        hub = Telemetry(spans=True)
        outcome = self.app.run(
            strategy,
            seed=seed,
            chaos=self._armer(schedule),
            telemetry=hub,
            backend=self.backend,
            timeout=self.timeout,
            **params,
        )
        spec = self.app.strategy_spec(strategy)
        order = spec.ordered and recorded_order(outcome.cluster.trace, spec.order_topic)
        observation = RunObservation(
            seed,
            *replicas(outcome.cluster, self.profile),
            truth=self.profile.truth(outcome, params),
            order=order or None,
            spans=hub.spans,
        )
        return observation, outcome

    def schedule_named(self, name: str) -> FaultSchedule:
        for schedule in self.schedules:
            if schedule.name == name:
                return schedule
        raise SimulationError(
            f"harness {self.name!r} has no schedule {name!r}; "
            f"have {[s.name for s in self.schedules]}"
        )

    def _armer(self, schedule: FaultSchedule):
        """A ``chaos`` callback applying ``schedule`` scaled to this app."""
        scaled = schedule.scaled(self.horizon)

        def arm(cluster) -> None:
            # each declared role resolved once per run, not once per fault
            processes = {r: _processes(cluster, n) for r, n in self.profile.roles.items()}

            def resolve(role: str, index: int) -> str:
                try:
                    names = processes[role]
                except KeyError:
                    raise SimulationError(
                        f"harness {self.name!r} has no role {role!r}; "
                        f"have {sorted(processes)}"
                    ) from None
                return names[index % len(names)]

            scaled.apply(cluster.network, resolve)

        return arm


def _processes(cluster, name: str) -> list[str]:
    """The processes a role's declared ``name`` names: the process called
    ``name``, else ``name0``, ``name1``, ... (or ``name#0``, ...) by index."""
    names = [process.name for process in cluster.network.processes]
    if name in names:
        return [name]
    indexed = []
    for process in names:
        if process.startswith(name):
            index = process[len(name):].removeprefix("#")
            if index.isdigit():
                indexed.append((int(index), process))
    if not indexed:
        raise SimulationError(f"no process is named {name!r} or {name!r} + index")
    return [process for _index, process in sorted(indexed)]


def _tagged(node, tables: Mapping[str, str | None]) -> frozenset:
    """A Bloom node's committed rows: each table's rows under its tag."""
    return frozenset(
        row if tag is None else (tag, *row)
        for table, tag in tables.items()
        for row in node.read(table)
    )


def replicas(cluster, profile) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
    """``(committed, emitted)`` rows per replica of a finished run, read
    off ``cluster`` through ``profile``'s ``roles``, ``committed`` and
    ``emitted`` (see :class:`~repro.api.AuditProfile`).

    A process is its own replica when one role holds both; otherwise
    replica ``i`` pairs the two roles' ``i``-th processes.  Without a
    ``committed`` declaration the cluster is a Storm one: its one replica,
    ``store``, is the terminal bolt's merged store, ``key -> count`` read
    as the row ``(*key, count)``.
    """
    if profile.committed is None:
        rows = frozenset(
            (*key, count) if isinstance(key, tuple) else (key, count)
            for key, count in cluster.committed_store().items()
        )
        return {"store": rows}, {"store": rows}
    (holding, tables), (emitting, interface) = profile.committed, profile.emitted

    def named(role: str) -> dict[str, str]:
        processes = _processes(cluster, profile.roles[role])
        if holding == emitting:
            return dict(zip(processes, processes))
        return {f"replica{i}": process for i, process in enumerate(processes)}

    return (
        {name: _tagged(cluster.node(p), tables) for name, p in named(holding).items()},
        {name: cluster.node(p).output_history(interface) for name, p in named(emitting).items()},
    )


def audit_apps() -> tuple[str, ...]:
    """The registered apps the audit campaign sweeps by default."""
    from repro.api import audit_app_names

    return audit_app_names()


def harness_for(
    app: str,
    *,
    smoke: bool = False,
    backend: str = "sim",
    timeout: float | None = None,
) -> AppHarness:
    """Build the audit harness for one registered app name."""
    from repro.api import get_app

    try:
        return AppHarness(
            get_app(app), smoke=smoke, backend=backend, timeout=timeout
        )
    except ApiError as exc:
        raise SimulationError(str(exc)) from None
