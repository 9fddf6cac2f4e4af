"""The telemetry hub: the coordination-cost ledger the runtime reports to.

A :class:`Telemetry` hub tallies the structured notes the simulated
runtime emits (message sends and coordination decisions) into the fields of the ``coordcost`` block
(:func:`repro.obs.coordcost.coordcost_report`).  Hubs are **opt-in
and run-scoped**: ``BlazesApp.run(telemetry=...)`` sets the run's scope
(:func:`repro.sim.events.run_scope`) to exactly its own hub, and
:func:`repro.sim.events.make_simulator` attaches that hub to every
simulator built inside it.  When a run has no hub, every
instrumentation site in the runtime reduces to one attribute load and a
``None`` check — the kernel's inner event loop is never touched — so
disabled telemetry is free and traces are byte-identical either way.

Per-message work is **recorded on the hop and derived on first read**:
``note_send`` bumps one tally entry that is folded into the
plane/kind/topic tallies when they are first read, and a hub that traces
spans has ``make_simulator`` add its span tracker
(:class:`~repro.obs.spans.SpanTracker`) to the kernel's delivery
observers, which append each delivered message to its raw log.  A reader
sees the counts and spans an eager hub would have built; a run nobody
reads pays for the tallies and appends only, and a hub without spans
pays nothing per delivery.

The hub itself is backend-agnostic: nothing here assumes a simulator.  A
real-transport backend reports through exactly the same ``note_send`` /
``note_decision`` surface (see ``docs/observability.md``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.obs.coordcost import TALLIES, TOPIC_KINDS, classify_message
from repro.obs.spans import SpanTracker

__all__ = ["Telemetry"]


class Telemetry:
    """One run's coordination-cost ledger plus its optional instruments.

    The ledger is five tallies (see :meth:`tallies`), the simulated-time
    overhead of the coordination services, and — with ``spans=True`` — a
    :class:`~repro.obs.spans.SpanTracker` that derives causal lineage from
    the delivered messages ``make_simulator`` feeds it.  ``profiler`` carries a
    :class:`~repro.sim.profile.SimProfiler` that ``make_simulator``
    attaches to the built kernel (the ``--profile`` path).
    """

    def __init__(self, *, spans: bool = False, profiler: Any = None) -> None:
        self._tallies = {field: Counter() for field in TALLIES}
        # sends not yet folded into the message tallies, see note_send
        self._sends: dict[Any, int] = {}
        self.spans: SpanTracker | None = SpanTracker() if spans else None
        self.profiler = profiler
        # Simulated-time serialization cost accumulated by coordination
        # services (ZK leader busy time); see obs/coordcost.py.
        self.sim_time_overhead = 0.0

    def tallies(self) -> dict[str, Counter]:
        """The ledger's five tallies by coordcost field, sends folded in:
        messages by plane, kind and topic, decisions by name and by
        ``name:topic``."""
        if self._sends:
            self._fold_sends()
        return self._tallies

    # ------------------------------------------------------------------
    # structured runtime notes
    # ------------------------------------------------------------------
    def note_send(self, kind: str, payload: Any) -> None:
        """Account one outbound message into its plane (see coordcost).

        Recorded on the hop, derived on read: a send only bumps a tally
        keyed by what its classification depends on — the kind, plus
        ``payload[0]`` for the kinds whose topic names it — and the tally
        is folded into the message tallies on their first read.
        A payload whose head is not a string is classified on the spot.
        """
        if kind in TOPIC_KINDS:
            try:
                head = payload[0]
            except (TypeError, IndexError, KeyError):
                head = None
            if type(head) is str:
                key = (kind, head)
            else:
                key = (kind, *classify_message(kind, payload))
        else:
            key = kind
        sends = self._sends
        sends[key] = sends.get(key, 0) + 1

    def _fold_sends(self) -> None:
        sends, self._sends = self._sends, {}
        tallies = self._tallies
        planes, kinds, topics = tallies["planes"], tallies["kinds"], tallies["topics"]
        for key, sent in sends.items():
            if type(key) is str:  # not a TOPIC_KINDS kind: no payload read
                kind = key
                plane, topic = classify_message(kind, None)
            elif len(key) == 2:
                kind, head = key
                plane, topic = classify_message(kind, (head,))
            else:
                kind, plane, topic = key
            planes[plane] += sent
            kinds[kind] += sent
            if topic:
                topics[topic] += sent

    def note_decision(
        self,
        name: str,
        *,
        topic: str = "",
        overhead: float = 0.0,
        lineage: str | None = None,
        node: str = "",
        time: float = 0.0,
        detail: Any = None,
    ) -> None:
        """Account one coordination/control decision (vote, release,
        sequencer commit, replay, retry), with optional simulated-time
        ``overhead`` and an optional span event under ``lineage``."""
        tallies = self._tallies
        tallies["decisions"][name] += 1
        if topic:
            tallies["decision_topics"][f"{name}:{topic}"] += 1
        if overhead:
            self.sim_time_overhead += overhead
        if lineage is not None and self.spans is not None:
            self.spans.note_event(time, lineage, name, node, detail)
