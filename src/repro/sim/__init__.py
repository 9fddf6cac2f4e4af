"""Deterministic discrete-event cluster simulator.

This package stands in for the paper's EC2 testbed (see DESIGN.md section
3): it provides a seeded event kernel, an asynchronous unordered network
with configurable latency/loss/duplication, execution traces, and the
fault hooks (crashed processes, blocked links) that :mod:`repro.chaos`
schedules arm.  All higher substrates (:mod:`repro.coord`, :mod:`repro.storm`,
:mod:`repro.bloom`) run on top of it.

There is one kernel, :mod:`repro.sim.events`, and every cluster builds its
simulator through :func:`make_simulator`, inside the run's
:func:`run_scope`.  The seed scheduler it replaced lives on as a
test-only oracle in ``tests/reference/``; the differential suite in
``tests/sim/test_kernel_equivalence.py`` holds the two to identical
traces.
"""

from repro.sim.events import EventHandle, Simulator, Waker, make_simulator, run_scope
from repro.sim.network import LatencyModel, Message, Network, Process
from repro.sim.profile import SimProfiler
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "Waker",
    "make_simulator",
    "run_scope",
    "SimProfiler",
    "LatencyModel",
    "Message",
    "Network",
    "Process",
    "Trace",
    "TraceRecord",
]
