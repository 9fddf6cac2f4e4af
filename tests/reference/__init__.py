"""Test-only reference implementations: the differential oracles.

``events_ref`` is the seed discrete-event scheduler, ``naive_engine``
the textbook Bloom fixpoint with its from-scratch operator evaluation,
``network_ref`` the network hop that asks the fault policy about every
message, ``telemetry_ref`` the hop telemetry that classified every
send and derived every span event on the hop, ``analysis_ref`` the
label analysis over string-tuple nodes that derived every step afresh,
and ``kvs_ref`` the key/value dataflow built by hand.
None is reachable from ``src/``; the differential suites
put them in place of the production code from the outside
(``tests/test_knobs.py`` fails if ``src/`` ever imports them).
"""

from __future__ import annotations

from unittest import mock

from repro.sim import events
from tests.reference import events_ref
from tests.reference.naive_engine import NaiveBloomRuntime, naive_eval
from tests.reference.network_ref import ReferenceNetwork

__all__ = [
    "NaiveBloomRuntime",
    "ReferenceNetwork",
    "events_ref",
    "naive_eval",
    "reference_kernel",
]


def reference_kernel():
    """A context manager that runs the enclosed block on the seed scheduler.

    Every cluster builds its simulator through
    :func:`repro.sim.events.make_simulator`, which looks up the
    module-level ``Simulator`` on each call, so swapping that name flips
    a whole run — app, chaos schedule, oracle — onto the reference.
    """
    return mock.patch.object(events, "Simulator", events_ref.Simulator)
