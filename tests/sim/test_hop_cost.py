"""The message hop's cost — pinned as a count, not a time.

Every simulated message pays one hop: a kernel record, ``Network.send``,
the kernel loop popping it, ``Network._deliver``.  ``tools/unexecuted.py``'s
``sys.settrace`` line counter, restricted to ``src/repro/sim``, repeats
exactly from run to run, so "lines the simulator executes per delivered
message" is a fact about the code and not about the host
(``tests/bloom/test_tick_cost.py`` pins the Bloom timestep the same way).
A record pool, a per-message helper call or a per-event re-check creeping
back onto the hop raises the count past the ceiling.
"""

from __future__ import annotations

from pathlib import Path

import repro.sim
from repro.api import get_app
from tools.unexecuted import count_lines

SIM = str(Path(repro.sim.__file__).parent)
# executed repro/sim lines per delivered message on the run below: 76.62
# (66 356 lines, 866 deliveries); 80.95 with a live-event counter written
# per event and ``Process.sim`` a property, 108.1 with a free pool of
# records, a helper call per post and LatencyModel.sample on the hop
CEILING = 76.7


def sim_lines_per_delivery() -> tuple[int, int]:
    """``(lines, delivered)`` for a small, fixed word count run."""
    outcomes = []

    def run() -> None:
        outcomes.append(
            get_app("wordcount").run(
                "sealed", total_batches=6, workers=4, batch_size=20, seed=0
            )
        )

    lines = count_lines(SIM, run)
    (outcome,) = outcomes
    return lines, outcome.cluster.network.delivered


def test_a_delivered_message_costs_the_simulator_a_bounded_number_of_lines():
    lines, delivered = sim_lines_per_delivery()
    assert delivered > 500, "the run delivered too little to measure"
    assert lines / delivered <= CEILING, lines / delivered
    assert sim_lines_per_delivery() == (lines, delivered)  # a count, not a timing
