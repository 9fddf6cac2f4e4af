"""Backend selection and transport configuration.

Kept dependency-free (no asyncio, no socket imports): the simulator
construction funnel (:func:`repro.sim.events.make_simulator`) consults
:func:`active_config` on every call, and must stay cheap for the
overwhelmingly common simulated case.

``socket_backend()`` scopes the socket backend over a ``with`` block the
way telemetry hubs are scoped: every cluster substrate built inside the
block lands on a :class:`~repro.net.services.NetSimulator` and a real
TCP transport instead of the discrete-event kernel.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os

from repro.errors import SimulationError

__all__ = [
    "BACKENDS",
    "NetConfig",
    "active_config",
    "resolve_backend",
    "socket_backend",
]

BACKENDS = ("sim", "socket")
# Wall seconds between reliable-session retransmit sweeps, and between
# dial attempts at an unreachable peer.
RETRANSMIT_INTERVAL = 0.2
RECONNECT_BACKOFF = 0.05


@dataclasses.dataclass(frozen=True)
class NetConfig:
    """Tunables of one socket-backed run.

    ``time_scale`` maps virtual time onto the wall clock (wall seconds
    per virtual unit): latencies, chaos windows, and run horizons are all
    expressed in virtual time by the apps and schedules, and scale
    together — 3.0 puts a smoke run in the 0.05–1.5 s range while keeping
    the sampled per-message latencies (a few ms) far above loopback
    jitter.  ``timeout`` is the wall-clock budget for one run; on expiry
    the services tear down cleanly and
    :class:`~repro.net.services.SocketTimeout` is raised.
    """

    host: str = "127.0.0.1"
    # wall seconds per virtual time unit
    time_scale: float = 3.0
    # wall-clock budget for one run (None = unbounded)
    timeout: float | None = None

    @classmethod
    def from_env(cls, **overrides) -> "NetConfig":
        """A config from ``BLAZES_NET_*`` variables plus overrides.

        ``None``-valued overrides are ignored, so call sites can pass
        optional CLI flags straight through.
        """
        env = os.environ
        fields: dict = {}
        for key, name, cast in (
            ("host", "BLAZES_NET_HOST", str),
            ("time_scale", "BLAZES_NET_TIME_SCALE", float),
        ):
            if name in env:
                try:
                    fields[key] = cast(env[name])
                except ValueError as exc:
                    raise SimulationError(
                        f"{name}={env[name]!r} is not a number"
                    ) from exc
        fields.update(
            {key: value for key, value in overrides.items() if value is not None}
        )
        config = cls(**fields)
        if config.time_scale <= 0:
            raise SimulationError(
                f"time_scale must be positive, got {config.time_scale}"
            )
        return config

    def to_dict(self) -> dict:
        """The transport settings a run goes under, constants included."""
        return {
            **dataclasses.asdict(self),
            "retransmit_interval": RETRANSMIT_INTERVAL,
            "reconnect_backoff": RECONNECT_BACKOFF,
        }


_ACTIVE: contextvars.ContextVar[NetConfig | None] = contextvars.ContextVar(
    "blazes_net_config", default=None
)


def active_config() -> NetConfig | None:
    """The scoped socket config, or ``None`` when simulating."""
    return _ACTIVE.get()


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend name (``None`` is the simulator)."""
    name = backend or "sim"
    if name not in BACKENDS:
        raise SimulationError(f"unknown backend {name!r}; have {BACKENDS}")
    return name


@contextlib.contextmanager
def socket_backend(config: NetConfig | None = None):
    """Scope the socket backend: clusters built inside run on sockets."""
    cfg = config if config is not None else NetConfig.from_env()
    token = _ACTIVE.set(cfg)
    try:
        yield cfg
    finally:
        _ACTIVE.reset(token)
