"""The real-transport backend: OS sockets behind the channel contract.

Every registered app, strategy, and chaos schedule in this repro runs
against the abstract channel interface of :mod:`repro.sim.network`
(``Process.send``/``recv``/``on_start`` + the ``Network`` routing
contract).  This package slots a *real* runtime in behind that contract:

* :mod:`repro.net.context` — backend selection
  (:func:`~repro.net.context.net_config` checks a run's backend and
  timeout) and the transport configuration;
* :mod:`repro.net.frames` — the wire format: length-prefixed frames of
  tagged JSON;
* :mod:`repro.net.transport` — the asyncio TCP transport: per-peer
  connections and the ``reliable_kinds`` session layer (acks, reconnect,
  redelivery across peer restarts);
* :mod:`repro.net.services` — the runtime:
  :class:`~repro.net.services.NetSimulator`, the discrete-event kernel
  paced by the wall clock (one pump; a run ends on event state — an
  empty heap and an idle transport — and crashes are actuated between
  callbacks), and :class:`~repro.net.services.SocketNetwork`, the
  ``Network`` subclass that puts messages on the wire.  Faults come from
  the *same* fault-schedule DSL and shared policy
  (:mod:`repro.sim.faultpolicy`) as the simulator.

The load-bearing invariant: for every registered app x strategy, the
committed state and the oracle/soundness verdict must not depend on
which transport carried the messages (see ``docs/transport.md``).
"""

from repro.net.context import NetConfig
from repro.errors import SocketTimeout

__all__ = ["NetConfig", "SocketTimeout"]
