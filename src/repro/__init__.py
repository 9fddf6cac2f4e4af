"""Blazes: coordination analysis for distributed programs (ICDE 2014).

A reproduction of Alvaro, Conway, Hellerstein and Maier's Blazes system:

* :mod:`repro.core` — the analyzer: component/stream annotations, the label
  inference and reconciliation procedures, and coordination synthesis;
* :mod:`repro.api` — the programmer-facing application layer: ``@annotate``
  declarations, the :class:`~repro.api.BlazesApp` façade
  (spec/analyze/plan/run/audit), and the app registry;
* :mod:`repro.sim` — a deterministic discrete-event cluster simulator;
* :mod:`repro.coord` — coordination substrates: a Zookeeper-like sequencer,
  total-order delivery, and the seal protocol;
* :mod:`repro.storm` — a Storm-like stream processing engine (grey box);
* :mod:`repro.bloom` — a Bloom-like declarative language runtime with
  white-box annotation extraction;
* :mod:`repro.apps` — the paper's running examples: the streaming word
  count and the ad-tracking network.
"""

from repro._lazy import _lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".core": (
        "AnalysisResult",
        "CoordinationPlan",
        "Dataflow",
        "FDSet",
        "Label",
        "analyze",
        "choose_strategies",
        "load_spec",
        "loads_spec",
        "render_report",
    ),
})
__all__.append("__version__")
