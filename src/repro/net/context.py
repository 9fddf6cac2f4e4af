"""Backend selection and transport configuration.

Kept dependency-free (no asyncio, no socket imports): every run checks
its ``(backend, timeout)`` pair here (:func:`net_config`), and the
simulated case must not pay for the socket runtime.  A run that gets a
:class:`NetConfig` back scopes it with
:func:`repro.sim.events.run_scope`: every cluster substrate built inside
lands on a :class:`~repro.net.services.NetSimulator` and a real TCP
transport instead of the discrete-event kernel.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import SimulationError

__all__ = ["BACKENDS", "NetConfig", "net_config"]

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
    :class:`~repro.errors.SocketTimeout` is raised.
    """

    host: str = "127.0.0.1"
    # wall seconds per virtual time unit
    time_scale: float = 3.0
    # wall-clock budget for one run (None = unbounded)
    timeout: float | None = None

    def to_dict(self) -> dict:
        """The transport settings a run goes under, constants included."""
        return {
            **dataclasses.asdict(self),
            "retransmit_interval": RETRANSMIT_INTERVAL,
            "reconnect_backoff": RECONNECT_BACKOFF,
        }


def net_config(backend: str | None, timeout: float | None) -> NetConfig | None:
    """Check a run's ``(backend, timeout)`` pair: the socket backend's
    :class:`NetConfig` (``BLAZES_NET_*`` variables plus ``timeout``), or
    ``None`` for the simulator (``backend`` ``None`` or ``"sim"``)."""
    name = backend or "sim"
    if name not in BACKENDS:
        raise SimulationError(f"unknown backend {name!r}; have {BACKENDS}")
    if name == "sim":
        if timeout is not None:
            raise SimulationError("timeout applies to the socket backend only")
        return None
    env = os.environ
    fields: dict = {"timeout": timeout}
    for key, variable, cast in (
        ("host", "BLAZES_NET_HOST", str),
        ("time_scale", "BLAZES_NET_TIME_SCALE", float),
    ):
        if variable in env:
            try:
                fields[key] = cast(env[variable])
            except ValueError as exc:
                raise SimulationError(
                    f"{variable}={env[variable]!r} is not a number"
                ) from exc
    config = NetConfig(**fields)
    # ``not > 0`` so that NaN, which compares false both ways, fails too
    if not config.time_scale > 0:
        raise SimulationError(f"time_scale must be positive, got {config.time_scale}")
    if timeout is not None and not timeout > 0:
        raise SimulationError(f"timeout must be positive, got {timeout}")
    return config
