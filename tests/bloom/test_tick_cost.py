"""A quiet timestep costs its delta — pinned as a count, not a time.

``tools/unexecuted.py``'s ``sys.settrace`` line counter, restricted to
``src/repro/bloom``, repeats exactly from run to run, so "a one-click tick
executes the same number of lines whether the node's ``response`` output
holds 12 standing answers or 100" is a fact about the code and not about
the host.  Before standing sinks the count grew with ``|response|``: every
tick cleared the output, re-asserted the writer's whole materialized
output row by row and diffed it against the node's log.

Three ceilings pin what that tick and the coordinated strategies' inputs
cost:

* ``repro/bloom`` lines per one-click CAMPAIGN tick: 129.21, down from
  171.2 when every wave scanned every rule of its stratum for the dirty
  ones, a set of dirty strata was kept beside them, every wave staged its
  rows in a dict and a one-row input swap diffed both sets (174.2 before
  that, 236.2 when the boundary walked every collection, each stratum
  rebuilt its wave list, a separate no-op check ran before every tick,
  and the group-by emitted a count row that the projection then
  cancelled);
* ``src/repro`` lines per sequenced value per replica on a small ordered
  ad network (2 servers x 100 entries, 3 replicas, seed 3), from the
  delivery through the adapter, the insert, the tick and the probe:
  303.73, down from 360.5 with that tick, a consumer that demultiplexed
  topics, an inbox that released an in-order value through its gap loop
  and a completion time read by one trace scan per replica (397.3
  before, 469.8 before that);
* ``src/repro`` lines per click per replica on the same network sealed:
  148.36, down from 177.7 when the node asked each coordination plugin in
  turn, the seal manager reassembled each producer's channel through an
  inbox calling back into it, the producer stamped each record through
  a helper call, and the same trace scans ran.
"""

from __future__ import annotations

from pathlib import Path

import repro
import repro.bloom
from repro.apps.ad_network import AdWorkload, run_ad_network
from repro.apps.queries import ORDER_TOPIC, make_report_module
from repro.bloom.cluster import BloomCluster
from repro.coord.zookeeper import recorded_order
from tools.unexecuted import count_lines

BLOOM = str(Path(repro.bloom.__file__).parent)
SRC = str(Path(repro.__file__).parent)
TICKS = 200
TICK_CEILING = 129.3
SEQUENCED_CEILING = 303.8
SEALED_CEILING = 148.4
SMALL_NETWORK = AdWorkload(ad_servers=2, entries_per_server=100, report_replicas=3)


def bloom_lines(standing: int) -> int:
    """Lines executed under ``repro/bloom`` by ``TICKS`` one-click ticks of
    a node whose CAMPAIGN ``response`` holds ``standing`` answers."""
    cluster = BloomCluster(seed=0)
    # a threshold no count reaches: every requested ad stays an answer
    node = cluster.add_node("report", make_report_module("CAMPAIGN", threshold=10**6))
    node.insert("request", [(f"q{i}", f"ad{i}") for i in range(standing)])
    node.insert("click", [("c0", 0, f"ad{i}", f"first-{i}") for i in range(standing)])
    cluster.run()
    assert len(node.read("response")) == standing
    ticks_before = node.runtime.tick_count

    def one_click_ticks() -> None:
        for i in range(TICKS):
            node.insert("click", [("c0", 0, f"ad{i % 12}", f"u{i}")])
            cluster.run()

    lines = count_lines(BLOOM, one_click_ticks)
    assert node.runtime.tick_count == ticks_before + TICKS
    assert len(node.output_history("response")) == standing
    return lines


def test_a_one_click_tick_executes_the_same_lines_at_12_and_100_standing_answers():
    few, many = bloom_lines(12), bloom_lines(100)
    assert few > 50 * TICKS, "the counter saw no ticks"
    assert few == many, (few / TICKS, many / TICKS)
    assert bloom_lines(12) == few  # a count, not a timing
    assert few / TICKS <= TICK_CEILING, few / TICKS


def small_network_lines(strategy: str):
    """``(lines under src/repro, result)`` of the small ad network run."""
    outcomes = []
    lines = count_lines(
        SRC,
        lambda: outcomes.append(run_ad_network(strategy, workload=SMALL_NETWORK, seed=3)),
    )
    (result,) = outcomes
    return lines, result


def test_a_sequenced_value_costs_each_replica_a_bounded_number_of_lines():
    workload = SMALL_NETWORK
    lines, result = small_network_lines("ordered")
    values = len(recorded_order(result.cluster.trace, ORDER_TOPIC))
    assert values == workload.total_entries + workload.requests
    for name in result.report_nodes:  # one timestep per sequenced value
        assert result.cluster.node(name).runtime.tick_count == values
    per_value = lines / (values * workload.report_replicas)
    assert per_value <= SEQUENCED_CEILING, per_value


def test_a_sealed_click_costs_each_replica_a_bounded_number_of_lines():
    workload = SMALL_NETWORK
    lines, result = small_network_lines("seal")
    for name in result.report_nodes:  # every click reached every replica
        assert result.cluster.node(name).runtime.count("clicks") == workload.total_entries
    per_click = lines / (workload.total_entries * workload.report_replicas)
    assert per_click <= SEALED_CEILING, per_click
