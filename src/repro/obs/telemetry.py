"""The telemetry hub: one interface the whole runtime reports through.

A :class:`Telemetry` hub carries labeled counters plus the structured
notes the simulated runtime emits
(message sends, deliveries, coordination decisions).  Hubs are **opt-in
and context-scoped**: :meth:`Telemetry.activate` (used by
``BlazesApp.run(telemetry=...)``) pushes the hub onto a module-level
stack, and :func:`repro.sim.events.make_simulator` attaches
:func:`current` to every simulator built inside the block.  When no hub
is active, every instrumentation site in the runtime reduces to one
attribute load and a ``None`` check — the kernel's inner event loop is
never touched — so disabled telemetry is free and traces are
byte-identical either way.

The two per-message notes are **recorded on the hop and derived on first
read**: ``note_send`` bumps one tally entry that is folded into the
``messages.*`` counters when a counter is first read, and
``note_delivery`` appends the message to the span tracker's raw log
(:class:`~repro.obs.spans.SpanTracker`).  A reader sees the counts and
spans an eager hub would have built; a run nobody reads pays for the
tallies and appends only.

The hub itself is backend-agnostic: nothing here assumes a simulator.  A
real-transport backend reports through exactly the same ``note_send`` /
``note_delivery`` / ``note_decision`` surface (see
``docs/observability.md``).
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Any

from repro.obs.coordcost import TOPIC_KINDS, classify_message
from repro.obs.spans import SpanTracker

__all__ = ["Telemetry", "activate", "current"]

# The active-hub stack.  A list (not a single slot) so nested runs — an
# audit cell spawning per-seed runs, a stats sweep inside a profiled
# run — each see their own innermost hub.
_ACTIVE: list["Telemetry"] = []


def current() -> "Telemetry | None":
    """The innermost active hub, or ``None`` when telemetry is disabled."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def activate(hub: "Telemetry"):
    """Scope ``hub`` as the active hub for the block."""
    _ACTIVE.append(hub)
    try:
        yield hub
    finally:
        _ACTIVE.pop()


class Telemetry:
    """One run's telemetry: instruments plus the runtime's structured notes.

    ``spans=True`` attaches a :class:`~repro.obs.spans.SpanTracker` that
    derives causal lineage from delivered messages; ``profiler`` carries a
    :class:`~repro.sim.profile.SimProfiler` that ``make_simulator``
    attaches to the built kernel (the ``--profile`` path).
    """

    def __init__(self, *, spans: bool = False, profiler: Any = None) -> None:
        self._counters: dict[str, Counter] = {}
        # sends not yet folded into the messages.* counters, see note_send
        self._sends: dict[Any, int] = {}
        self.spans: SpanTracker | None = SpanTracker() if spans else None
        self.profiler = profiler
        # Simulated-time serialization cost accumulated by coordination
        # services (ZK leader busy time); see obs/coordcost.py.
        self.sim_time_overhead = 0.0

    # ------------------------------------------------------------------
    # generic instruments
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, Counter]:
        """Every counter by name (label -> count), sends folded in."""
        if self._sends:
            self._fold_sends()
        return self._counters

    def count(self, name: str, label: str = "", by: int = 1) -> None:
        """Increment the labeled counter ``name``/``label``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        counter[label] += by

    def counter(self, name: str) -> Counter:
        """The label -> count mapping for one counter (empty if unused)."""
        return self.counters.get(name, Counter())

    def total(self, name: str) -> int:
        """Sum over all labels of one counter."""
        return sum(self.counter(name).values())

    # ------------------------------------------------------------------
    # structured runtime notes
    # ------------------------------------------------------------------
    def note_send(self, kind: str, payload: Any) -> None:
        """Account one outbound message into its plane (see coordcost).

        Recorded on the hop, derived on read: a send only bumps a tally
        keyed by what its classification depends on — the kind, plus
        ``payload[0]`` for the kinds whose topic names it — and the tally
        is folded into the ``messages.*`` counters on their first read.
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
        for key, sent in sends.items():
            if type(key) is str:  # not a TOPIC_KINDS kind: no payload read
                kind = key
                plane, topic = classify_message(kind, None)
            elif len(key) == 2:
                kind, head = key
                plane, topic = classify_message(kind, (head,))
            else:
                kind, plane, topic = key
            self.count("messages.plane", plane, sent)
            self.count("messages.kind", kind, sent)
            if topic:
                self.count("messages.topic", topic, sent)

    def note_delivery(self, msg: Any, time: float) -> None:
        """Feed one delivered message to the span tracker, if tracing."""
        if self.spans is not None:
            self.spans.note_delivery(msg, time)

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
        self.count("decisions", name)
        if topic:
            self.count("decisions.topic", f"{name}:{topic}")
        if overhead:
            self.sim_time_overhead += overhead
        if lineage is not None and self.spans is not None:
            self.spans.note_event(time, lineage, name, node, detail)

    # ------------------------------------------------------------------
    # scoping and export
    # ------------------------------------------------------------------
    def activate(self):
        """Scope this hub as the active hub for a ``with`` block."""
        return activate(self)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dump of every instrument."""
        return {
            "counters": {
                name: dict(counter) for name, counter in sorted(self.counters.items())
            },
            "sim_time_overhead": self.sim_time_overhead,
        }

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"spans={'on' if self.spans is not None else 'off'})"
        )
