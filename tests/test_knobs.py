"""The environment knobs ``src/repro`` reads are a closed, pinned set.

Every read goes through a literal variable name somewhere in the source,
so a token scan of the text finds them all without following
``os.environ``.  A new knob — or a retired selector creeping back — fails
here and has to be argued for; so does ``src/`` importing the test-only
reference implementations of ``tests/reference``, so does a second
loop over cells next to :func:`repro.exec.evaluate`, so does a second
Bloom evaluation path or an engine switch under ``src/repro/bloom``, and
so does a new constructor parameter or a second ``Network`` class on the
message hop, so does ``repro.core`` importing the chaos layer built on it,
so does a CLI flag declared in two places, so does a per-row arity
check (or a switch) creeping back into the Bloom timestep, so does a
second scheduler, a polling loop or a cadence option in the socket runtime,
so does a setting that every caller leaves at one value coming back as
a parameter, and so does an attribute stored that nothing reads.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

KNOBS = {
    "BLAZES_JOBS",
    "BLAZES_CACHE_DIR",
    "BLAZES_NET_HOST",
    "BLAZES_NET_TIME_SCALE",
    "REPRO_BENCH_DIR",
    "REPRO_REGEN_DIGESTS",
}


def _sources() -> list[Path]:
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no sources under {SRC}"
    return sources


def test_environment_knobs_are_exactly_the_pinned_set():
    found: dict[str, str] = {}
    for path in _sources():
        for token in re.findall(r"\b(?:BLAZES|REPRO)_[A-Z_]+", path.read_text()):
            if not token.endswith("_"):  # "BLAZES_NET_*" names the family
                found.setdefault(token, str(path.relative_to(SRC)))
    extra = {token: found[token] for token in found.keys() - KNOBS}
    assert not extra, f"unpinned environment knobs (first seen in): {extra}"
    assert not KNOBS - found.keys(), f"pinned but gone: {KNOBS - found.keys()}"


def test_src_never_imports_the_tests_package():
    pattern = re.compile(r"^\s*(?:from|import)\s+tests\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in _sources()
        if pattern.search(path.read_text())
    ]
    assert not offenders, f"src/ imports tests/: {offenders}"


def test_bench_vocabulary_never_imports_the_engine():
    """``bench <- exec <- chaos/cli/benchmarks``: no cycle."""
    pattern = re.compile(r"^\s*(?:from|import)\s+repro\.exec\b", re.MULTILINE)
    offenders = [
        path.name
        for path in sorted((SRC / "repro" / "bench").glob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert not offenders, f"repro.bench imports repro.exec: {offenders}"


def test_evaluate_is_the_only_loop_over_cells():
    """No second sweep runner, no ``verbose`` thread, and no figure script
    switching between a private memo and the engine."""
    scripts = sorted((ROOT / "benchmarks").glob("*.py"))
    assert scripts, "no figure scripts found"
    for path in _sources() + scripts:
        text = path.read_text()
        for retired in ("run_bench", "Stopwatch", "def timed(", "verbose"):
            assert retired not in text, (path.name, retired)
    for path in scripts:
        text = path.read_text()
        assert "cache is None" not in text, path.name
        memos = re.findall(r"functools\.(?:lru_)?cache\b", text)
        assert len(memos) <= 1, (path.name, memos)


def test_bloom_apps_wire_coordination_only_through_the_installer():
    """How a record travels under a strategy is ``repro.bloom.rewrite``'s
    decision: the app modules build no coordination client, producer or
    adapter themselves and talk to no sequencer."""
    forbidden = re.compile(
        r"ZkClient\(|SealedStreamProducer\(|OrderedInputAdapter\("
        r"|zk\.subscribe\(|\.submit\("
    )
    for name in ("ad_network.py", "kvs.py"):
        text = (SRC / "repro" / "apps" / name).read_text()
        assert not forbidden.findall(text), (name, forbidden.findall(text))
        assert "apply_strategy(" in text


def test_bloom_has_one_evaluation_path_and_no_engine_switch():
    """The interpreted delta path and the polled scheduler were replaced,
    not kept beside the compiled pipelines; the only second implementation
    is ``tests/reference/naive_engine.py``, and nothing selects an engine."""
    import inspect

    from repro.bloom.cluster import BloomNode
    from repro.bloom.runtime import BloomRuntime

    for path in sorted((SRC / "repro" / "bloom").glob("*.py")):
        text = path.read_text()
        for retired in ("eval_delta", "DeltaContext", "_versions", "def eval("):
            assert retired not in text, (path.name, retired)
    assert list(inspect.signature(BloomRuntime.__init__).parameters) == [
        "self", "module", "on_channel_send",
    ]
    assert list(inspect.signature(BloomNode.__init__).parameters) == [
        "self", "name", "module", "trace",
    ]


def test_the_timestep_checks_arity_only_on_external_input():
    """Rows a rule derives were proved the right width when the rule's
    state was built; only what arrives from outside — ``insert`` and
    ``deliver`` — is checked row by row.  And the standing-sink path has
    no switch: nothing under ``repro/bloom`` reads the environment."""
    import ast

    source = (SRC / "repro" / "bloom" / "runtime.py").read_text()
    callers = sorted(
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "check_arity"
    )
    assert callers == ["deliver", "insert"]
    for path in sorted((SRC / "repro" / "bloom").glob("*.py")):
        assert "environ" not in path.read_text(), path.name


def test_the_message_hop_has_no_knob_and_no_fork():
    """The hop was rewired in place: the four constructors on it take what
    they took before, the executor keeps channel state in its own integer
    tables, the delivery guard is one site for both backends because
    the socket network — still the only ``Network`` subclass under
    ``src/`` — overrides ``send`` and inherits ``_deliver``, the kernel
    keeps no record pool, and one span tracker and one hub record the
    hop's telemetry."""
    import inspect

    from repro.net.services import SocketNetwork
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.storm.executor import ClusterConfig, StormCluster

    def parameters(cls) -> list[str]:
        return list(inspect.signature(cls.__init__).parameters)

    assert parameters(Network) == [
        "self", "sim", "latency", "drop_prob", "dup_prob", "reliable_kinds",
        "retry_crashed", "retry_limit",
    ]
    assert parameters(Simulator) == ["self", "seed"]
    assert parameters(ClusterConfig) == [
        "self", "seed", "latency", "drop_prob", "exec_times", "replay_timeout",
        "transactional", "frame_size", "parallelism",
    ]
    assert parameters(StormCluster) == ["self", "topology", "config"]

    executor = (SRC / "repro" / "storm" / "executor.py").read_text()
    assert "OrderedInbox" not in executor

    # records are made fresh, not recycled, and the hop telemetry derives
    # on read in one class each: the eager copies live in tests/reference
    for path in sorted((SRC / "repro" / "sim").glob("*.py")):
        for retired in ("_pool", "_recycle", "_POOL_LIMIT"):
            assert retired not in path.read_text(), (path.name, retired)
    trackers = [
        (str(path.relative_to(SRC)), name)
        for path in _sources()
        for name in re.findall(r"^class (\w*(?:SpanTracker|Telemetry)\w*)\b", path.read_text(), re.M)
    ]
    assert trackers == [
        ("repro/obs/spans.py", "SpanTracker"), ("repro/obs/telemetry.py", "Telemetry"),
    ]

    subclasses = [
        (str(path.relative_to(SRC)), name)
        for path in _sources()
        for name in re.findall(r"^class (\w+)\([^)]*\bNetwork\b", path.read_text(), re.M)
    ]
    assert subclasses == [("repro/net/services.py", "SocketNetwork")]
    assert "send" in vars(SocketNetwork) and "_deliver" not in vars(SocketNetwork)
    assert "self.latency.sample(" in inspect.getsource(SocketNetwork.send)


def test_single_valued_settings_are_constants():
    """Bloom delivery has one granularity (a message per row) and one
    producer per process, and the settings every caller left at one value
    are module constants: the constructors and functions that carried them
    take exactly what they take now, and the retired spellings are gone."""
    import dataclasses
    import inspect

    from repro.apps.ad_network import AdWorkload, run_ad_network
    from repro.apps.kvs import run_kvs
    from repro.apps.source import PlannedSource
    from repro.apps.wordcount import TweetSpout, build_wordcount_topology
    from repro.bloom import rewrite
    from repro.bloom.cluster import BloomCluster
    from repro.chaos.envelope import reliable_sessions_envelope
    from repro.chaos.search import shrink_schedule
    from repro.coord.assignment import ReplicaAssignment
    from repro.coord.sealing import SealedStreamProducer, SealManager
    from repro.coord.zookeeper import ZkClient, ZookeeperService, install_zookeeper
    from repro.core.patterns import lint_dataflow
    from repro.exec.pool import WorkerPool
    from repro.storm.topology import BoltDeclarer

    def parameters(function) -> list[str]:
        return list(inspect.signature(function).parameters)

    assert parameters(SealedStreamProducer.__init__) == ["self", "process", "stream"]
    assert parameters(SealManager.__init__) == [
        "self", "stream", "on_complete", "producers_for", "zk_client",
    ]
    assert parameters(ReplicaAssignment.__init__) == ["self", "replicas"]
    assert [name for name in vars(ReplicaAssignment) if not name.startswith("_")] == [
        "tasks_of", "task_for",
    ]
    assert parameters(ZookeeperService.__init__) == ["self", "write_service", "trace"]
    assert parameters(install_zookeeper) == ["network", "write_service", "trace"]
    assert parameters(ZkClient.__init__) == ["self", "process"]
    assert parameters(rewrite.strategy_producer) == [
        "process", "strategy", "destinations", "stream_collections",
    ]
    assert parameters(rewrite._BroadcastProducer.__init__) == [
        "self", "process", "destinations",
    ]
    assert parameters(rewrite._SealedProducer.__init__) == [
        "self", "process", "destinations", "sealed",
    ]
    for producer in (
        rewrite._BroadcastProducer, rewrite._SequencedProducer, rewrite._SealedProducer,
        SealedStreamProducer,
    ):
        assert not hasattr(producer, "flush"), producer.__name__
    assert parameters(PlannedSource.__init__) == [
        "self", "name", "strategy", "destinations", "collection", "rows",
        "partition_of", "batch_size", "sleep", "ask_collection", "asks",
        "ask_spacing", "producer_kwargs",
    ]
    assert parameters(BloomCluster.__init__) == [
        "self", "seed", "latency", "reliable_kinds", "retry_crashed",
    ]
    assert parameters(BloomCluster.add_node) == ["self", "name", "module"]
    assert parameters(WorkerPool.__init__) == ["self", "jobs"]
    assert parameters(shrink_schedule) == ["schedule", "reproduces", "budget", "cell"]
    assert [field.name for field in dataclasses.fields(AdWorkload)] == [
        "ad_servers", "entries_per_server", "batch_size", "sleep", "campaigns",
        "ads_per_campaign", "requests", "report_replicas",
    ]
    assert parameters(run_ad_network) == [
        "strategy", "workload", "seed", "workload_seed", "query", "query_kwargs",
        "reliable_sessions", "max_events", "chaos",
    ]
    assert parameters(run_kvs) == [
        "strategy", "workload", "seed", "workload_seed", "max_events", "chaos",
    ]
    assert parameters(TweetSpout.__init__) == [
        "self", "total_batches", "batch_size", "seed",
    ]
    assert parameters(build_wordcount_topology) == [
        "workers", "total_batches", "batch_size", "seed", "eager",
    ]
    assert parameters(reliable_sessions_envelope) == []
    assert parameters(lint_dataflow) == ["result", "plan", "producers_per_partition"]
    assert [name for name in vars(BoltDeclarer) if not name.startswith("_")] == [
        "shuffle_grouping", "fields_grouping",
    ]

    texts = {str(path.relative_to(SRC)): path.read_text() for path in _sources()}
    for retired in (
        "seal.frame", "SEAL_FRAME", "producer_replicas", "collapse_single",
        "note_backend", "report_environment", '"global"',
    ):
        found = [name for name, text in texts.items() if retired in text]
        assert not found, (retired, found)
    # the seal registry's znode path is written in one place
    spelled = {name: text.count("producers/") for name, text in texts.items()}
    assert {name: n for name, n in spelled.items() if n} == {"repro/coord/sealing.py": 1}


def test_the_graph_index_has_no_knob_and_no_fork():
    """The adjacency replaced the scans in place: the graph and the analysis
    take what they took before, each query has one implementation, and it
    is a lookup — it never walks the stream table."""
    import inspect

    from repro.core import analyze
    from repro.core.graph import Dataflow

    def parameters(function) -> list[str]:
        return list(inspect.signature(function).parameters)

    assert parameters(Dataflow.__init__) == ["self", "name"]
    assert parameters(Dataflow.add_stream) == [
        "self", "name", "src", "dst", "seal", "rep", "label",
    ]
    assert parameters(Dataflow.streams_into) == ["self", "component", "in_iface"]
    assert parameters(Dataflow.streams_from) == ["self", "component", "out_iface"]
    assert parameters(analyze) == ["dataflow", "fds"]

    graph = (SRC / "repro" / "core" / "graph.py").read_text()
    for query in (Dataflow.streams_into, Dataflow.streams_from):
        assert "_streams" not in inspect.getsource(query)
        assert graph.count(f"def {query.__name__}(") == 1
    for path in sorted((SRC / "repro" / "core").glob("*.py")):
        assert not re.findall(r"lru_cache|functools\.cache", path.read_text()), path.name

    # the string-tuple interface graph lives on only in tests/reference
    analysis = (SRC / "repro" / "core" / "analysis.py").read_text()
    for retired in ("_interface_graph", "_Node", "_component_replicated", "_inputs_for"):
        assert retired not in analysis, retired


def test_core_never_imports_the_chaos_layer():
    """``core <- chaos``: the analysis is a leaf the audit builds on, so a
    campaign's serialiser sits beside the campaign, not in ``core/report``."""
    pattern = re.compile(r"^\s*(?:from|import)\s+repro\.chaos\b", re.MULTILINE)
    offenders = [
        path.name
        for path in sorted((SRC / "repro" / "core").glob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert not offenders, f"repro.core imports repro.chaos: {offenders}"


def test_every_cli_flag_is_declared_once():
    """Each option string is declared once in ``cli.py`` — one key of its
    flag table or one direct ``add_argument`` call; verbs only *name* the
    flags they share — and the parser offers exactly the declared ones."""
    import argparse
    import ast
    from collections import Counter

    from repro.cli import build_parser

    def options(nodes) -> list[str]:
        return [
            node.value
            for node in nodes
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"--[a-z][a-z-]*", node.value)
        ]

    declared: Counter = Counter()
    for node in ast.walk(ast.parse((SRC / "repro" / "cli.py").read_text())):
        if isinstance(node, ast.Dict):  # a table entry: flag -> keywords
            declared.update(
                options(
                    key
                    for key, value in zip(node.keys, node.values)
                    if isinstance(value, (ast.Dict, ast.Call))
                )
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "add_argument":
                declared.update(options(node.args))
    twice = {flag: count for flag, count in declared.items() if count != 1}
    assert declared and not twice, twice

    parser = build_parser()
    (verbs,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    offered = {
        option
        for command in [parser, *verbs.choices.values()]
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert offered == set(declared), offered ^ set(declared)


def test_the_socket_runtime_is_the_kernel_and_ends_on_event_state():
    """``NetSimulator`` is the DES kernel with a wall clock in it: it
    inherits the heap and its scheduling surface — no other class under
    ``src/repro`` defines one — and a run ends on event state, so nothing
    sets a polling cadence and nothing under ``repro/net`` sleeps except
    the transport's retransmit sweep and reconnect back-off."""
    import ast
    import dataclasses

    from repro.net.context import NetConfig
    from repro.net.services import NetSimulator
    from repro.sim.events import Simulator

    assert {field.name for field in dataclasses.fields(NetConfig)} == {
        "host", "time_scale", "timeout",
    }
    assert issubclass(NetSimulator, Simulator)
    inherited = {"schedule", "post", "waker", "pending", "fired", "profiler"}
    assert not inherited & vars(NetSimulator).keys()

    schedulers = sorted(
        (str(path.relative_to(SRC)), node.name)
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name in ("schedule", "post", "waker")
    )
    assert schedulers == [("repro/sim/events.py", "Simulator")] * 3

    sleeps = {
        path.name: path.read_text().count("asyncio.sleep")
        for path in sorted((SRC / "repro" / "net").glob("*.py"))
    }
    assert {name: n for name, n in sleeps.items() if n} == {"transport.py": 2}


def test_nothing_under_src_is_stored_without_a_reader():
    """Every attribute ``src/repro`` stores is read somewhere in ``src/``,
    ``benchmarks/`` or ``tests/``: ``tools/surface.py``'s list (a) is
    empty, so state nothing reads cannot come back unnoticed."""
    from tools import surface

    assert surface.unread_attributes() == []
