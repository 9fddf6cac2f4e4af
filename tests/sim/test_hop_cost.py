"""The message hop's cost — pinned as a count, not a time.

Every simulated message pays one hop: a kernel record, ``Network.send``,
the kernel loop popping it, ``Network._deliver``.  ``tools/unexecuted.py``'s
``sys.settrace`` line counter repeats exactly from run to run, so "lines
executed per delivered message" is a fact about the code and not about
the host (``tests/bloom/test_tick_cost.py`` pins the Bloom timestep the
same way).  Restricted to ``src/repro/sim`` it is the hop itself: a record
pool, a per-message helper call or a per-event re-check creeping back
raises it past :data:`CEILING`.  Over all of ``src/repro`` it adds the
Storm executor's per-item path around each hop (route, channel send,
reassembly, service), pinned by :data:`REPRO_CEILING`.
"""

from __future__ import annotations

from pathlib import Path

import repro.sim
from repro.api import get_app
from tools.unexecuted import count_lines

SIM = str(Path(repro.sim.__file__).parent)
REPRO = str(Path(repro.__file__).parent)
# executed repro/sim lines per delivered message on the run below: 56.69
# (49 095 lines, 866 deliveries); 57.71 with a watched flag, a profiler and
# a hub checked before the observers; 76.62 with the fired count written and
# the instant re-checked per event, a copy loop on every send and the
# profiler, telemetry and observers each checked per delivery; 80.95 with
# a live-event counter written per event and ``Process.sim`` a property,
# 108.1 with a free pool of records, a helper call per post and
# LatencyModel.sample on the hop
CEILING = 57.8
# executed src/repro lines per delivered message on the same run: 127.45
# (110 370 lines); 155.73 with every channel item queued before service,
# a router branching on the grouping mode per tuple and the punctuation
# built per send
REPRO_CEILING = 131.8


def lines_per_delivery(prefix: str) -> tuple[int, int]:
    """``(lines under prefix, delivered)`` for a small, fixed word count run."""
    outcomes = []

    def run() -> None:
        outcomes.append(
            get_app("wordcount").run(
                "sealed", total_batches=6, workers=4, batch_size=20, seed=0
            )
        )

    lines = count_lines(prefix, run)
    (outcome,) = outcomes
    return lines, outcome.cluster.network.delivered


def test_a_delivered_message_costs_the_simulator_a_bounded_number_of_lines():
    lines, delivered = lines_per_delivery(SIM)
    assert delivered > 500, "the run delivered too little to measure"
    assert lines / delivered <= CEILING, lines / delivered
    assert lines_per_delivery(SIM) == (lines, delivered)  # a count, not a timing


def test_a_delivered_message_costs_the_program_a_bounded_number_of_lines():
    lines, delivered = lines_per_delivery(REPRO)
    assert delivered > 500, "the run delivered too little to measure"
    assert lines / delivered <= REPRO_CEILING, lines / delivered
