"""Tests for distributed Bloom: nodes, channels, and delivery policies."""

from __future__ import annotations

import pytest

from repro.apps.queries import make_report_module
from repro.bloom.cluster import INSERT_MSG, BloomCluster
from repro.bloom.module import BloomModule
from repro.apps.source import PlannedSource
from repro.bloom.rewrite import (
    OrderedInputAdapter,
    SealedInputAdapter,
    apply_strategy,
    strategy_producer,
)
from repro.coord.sealing import DATA, PUNCT, SealedStreamProducer
from repro.coord.zookeeper import GET_REPLY, SUBMIT, install_zookeeper
from repro.core.strategy import NoCoordination, OrderStrategy, SealStrategy
from repro.errors import BloomError, SimulationError
from repro.sim.network import Message, Process
from repro.wire import ZK_DELIVER
from tests.bloom.test_engine_equivalence import RandomModule, _schedule


class Pinger(BloomModule):
    """Forwards everything it hears to a peer, once (echo suppressed)."""

    def setup(self):
        self.input_interface("start", ["addr", "v"])
        self.channel("ping", ["@addr", "v"])
        self.output_interface("heard", ["v"])
        self.table("log", ["v"])

    def rules(self):
        return [
            self.rule("ping", "<~", self.scan("start")),
            self.rule("log", "<=", self.project(self.scan("ping"), ["v"])),
            self.rule("heard", "<=", self.scan("log")),
        ]


def test_channels_route_between_nodes():
    cluster = BloomCluster(seed=1)
    n1 = cluster.add_node("n1", Pinger())
    n2 = cluster.add_node("n2", Pinger())
    n1.insert("start", [("n2", "hello"), ("n2", "again")])
    cluster.run()
    assert n2.output_history("heard") == {("hello",), ("again",)}
    assert n1.output_history("heard") == frozenset()


def test_insert_message_kind():
    cluster = BloomCluster(seed=1)
    node = cluster.add_node("n1", Pinger())

    class Driver(Process):
        def recv(self, msg):
            pass

        def on_start(self):
            self.send("n1", INSERT_MSG, ("start", [("n1", "x")]))

    cluster.network.register(Driver("driver"))
    cluster.run()
    assert node.output_history("heard") == {("x",)}


def test_unknown_message_kind_raises():
    cluster = BloomCluster(seed=1)
    cluster.add_node("n1", Pinger())

    class Rogue(Process):
        def recv(self, msg):
            pass

        def on_start(self):
            self.send("n1", "mystery", None)

    cluster.network.register(Rogue("rogue"))
    with pytest.raises(BloomError):
        cluster.run()


def test_node_lookup():
    cluster = BloomCluster()
    node = cluster.add_node("n1", Pinger())
    assert cluster.node("n1") is node
    assert cluster.nodes == (node,)
    with pytest.raises(BloomError):
        cluster.node("ghost")


class Accumulator(BloomModule):
    def setup(self):
        self.input_interface("inp", ["v"])
        self.output_interface("out", ["v"])
        self.table("store", ["v"])

    def rules(self):
        return [
            self.rule("store", "<=", self.scan("inp")),
            self.rule("out", "<=", self.scan("store")),
        ]


def test_ordered_adapter_applies_identical_sequences():
    cluster = BloomCluster(seed=5)
    zk = install_zookeeper(cluster.network)
    nodes = [cluster.add_node(f"r{i}", Accumulator()) for i in range(3)]
    strategy = OrderStrategy("Acc", ("inp",), topic="ops")
    adapters = [apply_strategy(node, strategy, zk=zk) for node in nodes]

    class Producer(Process):
        def __init__(self, name):
            super().__init__(name)
            self.pub = strategy_producer(self, strategy, [n.name for n in nodes])

        def recv(self, msg):
            self.pub.handle(msg)

        def on_start(self):
            for i in range(10):
                self.pub.emit("inp", (f"{self.name}-{i}",))

    for p in range(2):
        cluster.network.register(Producer(f"p{p}"))
    cluster.run()
    stores = [node.read("store") for node in nodes]
    assert stores[0] == stores[1] == stores[2]
    assert len(stores[0]) == 20
    assert all(adapter.applied == 20 for adapter in adapters)


def test_a_delivery_on_another_topic_is_a_wiring_error():
    cluster = BloomCluster(seed=0)
    node = cluster.add_node("r0", Accumulator())
    OrderedInputAdapter(node, "ops")
    stray = Message("zookeeper", "r0", ZK_DELIVER, ("other", 0, ("inp", ("v",))), 0.0, 0)
    with pytest.raises(BloomError, match="topic 'other'"):
        node.recv(stray)


def test_sealed_adapter_buffers_until_punctuated():
    cluster = BloomCluster(seed=5)
    node = cluster.add_node("r0", Accumulator())
    SealedInputAdapter(
        node, "s", "inp", producers_for=lambda partition: frozenset({"p0"})
    )

    class Producer(Process):
        def __init__(self, name):
            super().__init__(name)
            self.out = SealedStreamProducer(self, "s")

        def recv(self, msg):
            pass

        def on_start(self):
            self.out.send_record("r0", "k1", ("a",))
            self.out.send_record("r0", "k2", ("b",))
            self.out.seal("r0", "k1")

    cluster.network.register(Producer("p0"))
    cluster.run()
    # only the sealed partition became visible
    assert node.read("store") == {("a",)}


SEAL_ON_K = SealStrategy("n", (("s", frozenset({"k"})),), (frozenset({"k"}),))
ORDER_ON_OPS = OrderStrategy("n", ("inp", "ask"), topic="ops")


def test_apply_strategy_dispatch():
    cluster = BloomCluster(seed=0)
    node = cluster.add_node("n", Accumulator())
    assert apply_strategy(node, NoCoordination("n")) is None
    adapter = apply_strategy(node, OrderStrategy("n", ("inp",), "test"))
    assert isinstance(adapter, OrderedInputAdapter)
    seal = apply_strategy(
        node,
        SEAL_ON_K,
        stream_collections={"s": "inp"},
        producers_for=lambda partition: frozenset({"p0"}),
    )
    assert isinstance(seal, SealedInputAdapter)
    with pytest.raises(BloomError):
        apply_strategy(node, SEAL_ON_K)
    two_streams = SealStrategy("n", (("s", frozenset({"k"})), ("t", frozenset({"k"}))), ())
    with pytest.raises(BloomError, match="one sealed stream"):
        apply_strategy(node, two_streams, stream_collections={"s": "inp", "t": "inp"})
    with pytest.raises(BloomError):
        apply_strategy(node, "ordered")


def _bloom_app_strategies():
    from repro.api import iter_apps

    return [
        (app.name, strategy)
        for app in iter_apps()
        if app.backend == "bloom"
        for strategy in app.strategies
    ]


@pytest.mark.parametrize("app_name,strategy_name", _bloom_app_strategies())
def test_installer_accepts_every_plan_entry(app_name, strategy_name):
    """Both halves take whatever a registered app's plan contains, and the
    entry the deployment installs agrees with the plan's wherever the
    analysis asks for coordination at all."""
    from repro.api import get_app

    app = get_app(app_name)
    spec = app.strategy_spec(strategy_name)
    flow = app.dataflow(strategy_name)
    expected = {
        NoCoordination: type(None),
        OrderStrategy: OrderedInputAdapter,
        SealStrategy: SealedInputAdapter,
    }
    cluster = BloomCluster(seed=0)
    zk = install_zookeeper(cluster.network)
    for component, entry in app.plan(strategy_name).strategies.items():
        node = cluster.add_node(f"{component}-node", Accumulator())
        inputs = {s.name: "inp" for s in flow.streams_into(component)}
        adapter = apply_strategy(node, entry, zk=zk, stream_collections=inputs)
        assert isinstance(adapter, expected[type(entry)])
        producer = strategy_producer(
            node, entry, [node.name], stream_collections=inputs
        )
        producer.emit("inp", ("v",), "p")
        installed = spec.installed(component, {name: name for name in inputs})
        if spec.coordinated and not isinstance(entry, NoCoordination):
            assert type(installed) is type(entry)
            if isinstance(entry, OrderStrategy):
                assert installed.topic == entry.topic
            else:
                assert installed.partitions == entry.partitions
        elif not spec.coordinated:
            assert isinstance(installed, NoCoordination)


class RecordingSource(PlannedSource):
    """Captures what the producer half puts on the wire."""

    def __init__(self, strategy):
        self.wire: list[tuple] = []
        super().__init__(
            "src",
            strategy,
            ["r0", "r1"],
            collection="inp",
            rows=[("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)],
            partition_of=lambda row: row[0],
            batch_size=2,
            sleep=0.01,
            ask_collection="ask",
            asks=[("q",)],
            ask_spacing=1.0,
            stream_collections={"s": "inp"},
        )

    def send(self, dst, kind, payload):
        self.wire.append((dst, kind, payload))


def _wire_of(strategy) -> list[tuple]:
    cluster = BloomCluster(seed=0)
    source = RecordingSource(strategy)
    cluster.network.register(source)
    cluster.run()
    return source.wire


def _to_both(kind, *payloads):
    return [(dst, kind, p) for p in payloads for dst in ("r0", "r1")]


class TestProducerHalf:
    """The exact (dst, kind, payload) sequence of a small planned stream:
    bursts of two, a partition sealed with its last record, the ask last."""

    def test_broadcast(self):
        rows = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        assert _wire_of(NoCoordination("n")) == _to_both(
            INSERT_MSG, *[("inp", [row]) for row in rows], ("ask", [("q",)])
        )

    def test_sequenced(self):
        rows = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        assert _wire_of(ORDER_ON_OPS) == [
            ("zookeeper", SUBMIT, ("ops", ("inp", row))) for row in rows
        ] + [("zookeeper", SUBMIT, ("ops", ("ask", ("q",))))]

    def test_sealed_punctuates_at_the_last_record(self):
        def data(seq, row):
            return ("s", seq, row[0], row, "src")

        def punct(seq, partition):
            return ("s", seq, partition, "src")

        assert _wire_of(SEAL_ON_K) == (
            _to_both(DATA, data(0, ("a", 1)), data(1, ("b", 2)))
            # second burst: "a" and "b" end here, in stream order
            + _to_both(DATA, data(2, ("a", 3)), data(3, ("b", 4)))
            + _to_both(PUNCT, punct(4, "a"), punct(5, "b"))
            + _to_both(DATA, data(6, ("c", 5)))
            + _to_both(PUNCT, punct(7, "c"))
            # the unsealed collection is broadcast
            + _to_both(INSERT_MSG, ("ask", [("q",)]))
        )

    def test_a_process_producing_no_sealed_stream_broadcasts(self):
        class Quiet(Process):
            def send(self, dst, kind, payload):
                sent.append((dst, kind, payload))

        sent: list[tuple] = []
        producer = strategy_producer(Quiet("q"), SEAL_ON_K, ["r0"])
        producer.emit("inp", ("a", 1), "a")
        producer.seal("a")
        assert sent == [("r0", INSERT_MSG, ("inp", [("a", 1)]))]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(BloomError):
            strategy_producer(Process("p"), "sealed", ["r0"])

    @pytest.mark.parametrize("strategy", [NoCoordination("n"), SEAL_ON_K, ORDER_ON_OPS])
    def test_a_source_takes_no_message_not_even_a_service_reply(self, strategy):
        """Every producer only sends, so whatever reaches a source is an
        error, a zookeeper reply to a sequenced one included."""
        reply = Message("zookeeper", "src", GET_REPLY, ("path", None), 0.0, 0)
        with pytest.raises(SimulationError, match="source src got unexpected"):
            RecordingSource(strategy).recv(reply)


class SinkModule(BloomModule):
    """A bare table sink."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("t", ["v"])

    def rules(self):
        return [self.rule("t", "<=", self.scan("inp"))]


def test_a_duplicate_delivery_is_a_tick_that_changes_nothing():
    """Redundant input is a timestep like any other: counted, and leaving
    the table as the first delivery did."""
    cluster = BloomCluster(seed=3)
    node = cluster.add_node("sink", SinkModule())

    class Feeder(Process):
        def on_start(self):
            # the same table row three times; only the first changes state
            for delay in (0.01, 0.05, 0.09):
                self.after(delay, lambda: self.send("sink", INSERT_MSG, ("t", [(1,)])))

        def recv(self, msg):  # pragma: no cover - nothing answers
            raise AssertionError(msg)

    cluster.network.register(Feeder("feeder"))
    cluster.run()
    assert node.read("t") == {(1,)}
    assert node.runtime.tick_count == 3


# stratifiable generated programs whose deferred rules keep queuing rows
# after their input stops, rows that change nothing
IDLE_DEFERRED_SEEDS = (1, 3, 4, 9, 10, 15, 16, 18, 20, 25, 32, 33, 34, 36, 38, 39)


def _planned_node(seed):
    """One node running ``RandomModule(seed)``, fed one planned step per timer."""
    cluster = BloomCluster(seed=1)
    node = cluster.add_node("n0", RandomModule(seed))
    for step, inserts in enumerate(_schedule(seed)):
        for collection, rows in inserts:
            node.after(0.01 * (step + 1), lambda c=collection, r=rows: node.insert(c, r))
    return cluster, node


def _storage(node) -> dict:
    return {decl.name: node.read(decl.name) for decl in node.module.declarations}


@pytest.mark.parametrize("seed", IDLE_DEFERRED_SEEDS)
def test_a_node_whose_deferred_rules_change_nothing_stops_ticking(seed):
    """An unbounded run ends, its deferred rows still queued, on the
    storage a bounded run reaches; a further step would change nothing."""
    cluster, node = _planned_node(seed)
    cluster.run(max_events=10_000)
    assert cluster.sim.pending == 0  # it ended, not the guard
    assert node.runtime.has_pending_input
    bounded_cluster, bounded = _planned_node(seed)
    bounded_cluster.run(until=0.4)
    assert _storage(node) == _storage(bounded)
    node.runtime.tick()
    assert _storage(node) == _storage(bounded)


class ClearedInput(BloomModule):
    """A deferred copy that never changes ``t``, and a table that fills
    only once ``inp`` is cleared."""

    def setup(self):
        self.input_interface("inp", ["v"])
        self.table("t", ["v"])
        self.table("missed", ["v"])

    def rules(self):
        return [
            self.rule("t", "<+", self.scan("t")),
            self.rule("missed", "<=", self.notin(self.scan("t"), self.scan("inp"), on=[("v", "v")])),
        ]


def test_a_step_fed_the_same_input_again_is_not_a_fixed_point():
    """The second step consumes ``inp``'s row again and leaves every
    collection as the first did, but the step after it, fed nothing,
    clears ``inp``: the node ticks on until a step replays its own input."""
    cluster = BloomCluster(seed=1)
    node = cluster.add_node("n0", ClearedInput())
    node.after(0.01, lambda: node.insert("t", [(1,)]))
    node.after(0.01, lambda: node.insert("inp", [(1,)]))
    node.after(0.0107, lambda: node.insert("inp", [(1,)]))  # joins the second step
    cluster.run(max_events=1_000)
    assert cluster.sim.pending == 0
    assert node.read("missed") == {(1,)}
    assert node.runtime.tick_count == 4  # fed, fed again, cleared, replayed


class OneClick(Process):
    """Sends one click and one request to the report node on start."""

    def on_start(self):
        self.send("report", INSERT_MSG, ("click", [("c0", 0, "ad0", "u0")]))
        self.send("report", INSERT_MSG, ("request", [("q0", "ad0")]))

    def recv(self, msg):  # pragma: no cover - nothing answers
        raise AssertionError(msg)


def one_click_run(*bounds: float):
    """Messages sent, committed clicks and trace rows of a one-click run
    driven by ``run(until=b)`` for each bound, then ``run()``."""
    cluster = BloomCluster(seed=3)
    node = cluster.add_node("report", make_report_module("CAMPAIGN"))
    cluster.network.register(OneClick("source"))
    for until in bounds:
        cluster.run(until=until)
    cluster.run()
    return cluster.network.sent, node.read("clicks"), list(cluster.trace)


def test_a_run_resumed_after_a_bounded_one_starts_no_process_twice():
    """``run(until=t); run()`` is one run: a second ``run`` that called
    every ``on_start`` again would have the source send its click twice."""
    whole = one_click_run()
    sent, clicks, rows = whole
    assert (sent, len(clicks)) == (2, 1)
    assert [row.event for row in rows] == ["output:response"]
    assert one_click_run(1e-4) == whole
    assert one_click_run(1e-4, 2e-3, 1.0) == whole
