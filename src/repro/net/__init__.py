"""The real-transport backend: OS sockets behind the channel contract.

Every registered app, strategy, and chaos schedule in this repro runs
against the abstract channel interface of :mod:`repro.sim.network`
(``Process.send``/``recv``/``on_start`` + the ``Network`` routing
contract).  This package slots a *real* runtime in behind that contract:

* :mod:`repro.net.context` — backend selection (`socket_backend()`
  scopes a run onto sockets) and the transport configuration;
* :mod:`repro.net.frames` — the wire format: length-prefixed frames of
  tagged JSON;
* :mod:`repro.net.transport` — the asyncio TCP transport: per-peer
  connections and the ``reliable_kinds`` session layer (acks, reconnect,
  redelivery across peer restarts);
* :mod:`repro.net.services` — nodes as asyncio services with mailbox
  loops, the :class:`~repro.net.services.ServiceCluster` lifecycle,
  wall-clock quiescence detection, and the Simulator-compatible
  :class:`~repro.net.services.NetSimulator`;
* :mod:`repro.net.chaosproxy` — wall-clock fault actuation at the
  transport layer, driven by the *same* fault-schedule DSL and the same
  shared policy (:mod:`repro.sim.faultpolicy`) as the simulator.

The load-bearing invariant: for every registered app x strategy, the
committed state and the oracle/soundness verdict must not depend on
which transport carried the messages (see ``docs/transport.md``).
"""

from repro.net.context import NetConfig, active_config, socket_backend
from repro.net.services import SocketTimeout

__all__ = ["NetConfig", "SocketTimeout", "active_config", "socket_backend"]
