"""The generic adapter between the campaign runner and registered apps.

Historically every audit app carried its own hand-written harness class;
the three wiring paths (spec for predictions, builders for execution,
harness shims for observation) are now collapsed into the app's single
:class:`~repro.api.BlazesApp` declaration.  :class:`AppHarness` is the one
adapter left: it reads the app's :class:`~repro.api.AuditProfile` and

* takes **predictions** from ``app.analyze(strategy)`` — the same label
  analysis ``blazes analyze`` prints, on the same derived dataflow;
* **executes** one (strategy, schedule, seed) cell through ``app.run``,
  arming the fault schedule via the runner's ``chaos`` hook with roles
  resolved by the profile (``worker`` is a stateful processing replica,
  ``source`` a producer, ``client`` the request driver, ``splitter`` /
  ``sink`` / ``cache`` app-specific stages);
* **observes** the finished run through the profile's extractor, yielding
  the :class:`~repro.chaos.oracle.RunObservation` the oracle classifies.

``harness_for(name)`` resolves the app registry, so the campaign sweeps
whatever is registered — no per-app code lives here anymore.
"""

from __future__ import annotations

from repro.chaos.oracle import RunObservation
from repro.chaos.schedule import FaultSchedule
from repro.core.labels import Label
from repro.errors import ApiError, SimulationError

__all__ = ["AppHarness", "audit_apps", "harness_for"]


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
        self.schedules: tuple[FaultSchedule, ...] = tuple(
            self.profile.schedules(smoke)
        )
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
        import dataclasses

        from repro.obs.telemetry import Telemetry

        params = dict(self.profile.run_params(self.smoke))
        params["workload_seed"] = self.profile.workload_seed
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
        observation = self.profile.observe(outcome, params)
        if observation.spans is None:
            observation = dataclasses.replace(observation, spans=hub.spans)
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
            roles = self.profile.roles(cluster)

            def resolve(role: str, index: int) -> str:
                try:
                    names = roles[role]
                except KeyError:
                    raise SimulationError(
                        f"harness {self.name!r} has no role {role!r}; "
                        f"have {sorted(roles)}"
                    ) from None
                return names[index % len(names)]

            scaled.apply(cluster.network, resolve)

        return arm


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
