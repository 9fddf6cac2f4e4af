"""What a caller can set is one manifest, ``tests/goldens/surface.txt``
(``python tools/surface.py --manifest``): a new parameter, field, knob or
flag, or a flag declared twice, moves it.  After an *intended* change::

    REPRO_REGEN_DIGESTS=1 PYTHONPATH=src python -m pytest tests/test_knobs.py

The other tests pin what no signature shows: which layer imports which,
the one loop over cells, the one scheduler, and retired private names.
"""

from __future__ import annotations

import ast
import difflib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.graph import Dataflow
from repro.net.services import NetSimulator, SocketNetwork
from repro.sim.events import Simulator
from tools import surface

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "goldens" / "surface.txt"


def _sources(under: str = "repro") -> list[Path]:
    sources = sorted((SRC / under).rglob("*.py"))
    assert sources, f"no sources under {SRC / under}"
    return sources


def test_the_settable_surface_is_the_manifest():
    text = surface.manifest()
    if os.environ.get("REPRO_REGEN_DIGESTS") == "1":
        GOLDEN.write_text(text)
        pytest.skip(f"regenerated {GOLDEN.name}")
    diff = difflib.unified_diff(GOLDEN.read_text().splitlines(), text.splitlines(), lineterm="")
    moved = "\n".join(list(diff)[2:60])
    assert not moved, f"the surface moved; if intended, regenerate and review:\n{moved}"


def test_the_manifest_does_not_depend_on_the_hash_seed():
    runs = [
        subprocess.Popen(
            [sys.executable, "tools/surface.py", "--manifest"], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    first, second = (run.communicate()[0] for run in runs)
    assert first == second and first.startswith("settable values: ") and "0x" not in first


@pytest.mark.parametrize(
    "layer,imported", [("", "tests"), ("repro/bench", "repro.exec"), ("repro/core", "repro.chaos")]
)
def test_a_layer_never_imports_one_built_on_it(layer, imported):
    """``src`` never imports the test references; ``bench <- exec``, ``core <- chaos``."""
    pattern = re.compile(rf"^\s*(?:from|import)\s+{re.escape(imported)}\b", re.MULTILINE)
    offenders = [str(p.relative_to(SRC)) for p in _sources(layer) if pattern.search(p.read_text())]
    assert not offenders, f"{layer or 'src'} imports {imported}: {offenders}"


def test_evaluate_is_the_only_loop_over_cells():
    """No second sweep runner, no ``verbose`` thread, and no figure script
    switching between a private memo and the engine."""
    scripts = sorted((ROOT / "benchmarks").glob("*.py"))
    assert scripts, "no figure scripts found"
    for path in _sources() + scripts:
        found = [r for r in ("run_bench", "Stopwatch", "def timed(", "verbose") if r in path.read_text()]
        assert not found, (path.name, found)
    for path in scripts:
        text = path.read_text()
        assert "cache is None" not in text, path.name
        assert len(re.findall(r"functools\.(?:lru_)?cache\b", text)) <= 1, path.name


def test_bloom_apps_wire_coordination_only_through_the_installer():
    """The app modules build no coordination client, producer or adapter and
    talk to no sequencer: ``repro.bloom.rewrite`` decides how a record travels."""
    forbidden = re.compile(
        r"ZkClient\(|SealedStreamProducer\(|OrderedInputAdapter\(|zk\.subscribe\(|\.submit\("
    )
    for name in ("ad_network.py", "kvs.py"):
        text = (SRC / "repro" / "apps" / name).read_text()
        assert not forbidden.findall(text), (name, forbidden.findall(text))
        assert "apply_strategy(" in text


def test_the_timestep_checks_arity_only_on_external_input():
    """Only what arrives from outside (``insert``, ``deliver``) is checked row
    by row, and nothing under ``repro/bloom`` reads the environment."""
    tree = ast.parse((SRC / "repro" / "bloom" / "runtime.py").read_text())
    callers = sorted(
        function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr == "check_arity"
    )
    assert callers == ["deliver", "insert"]
    for path in _sources("repro/bloom"):
        assert "environ" not in path.read_text(), path.name


def test_the_socket_runtime_is_the_kernel_and_ends_on_event_state():
    """One heap schedules both backends, the socket network delivers through
    ``Network._deliver``, and only the retransmit sweep and reconnect back-off sleep."""
    assert issubclass(NetSimulator, Simulator)
    schedulers = sorted(
        (str(path.relative_to(SRC)), node.name)
        for path in _sources() for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("schedule", "post", "waker")
    )
    assert schedulers == [("repro/sim/events.py", "Simulator")] * 3
    assert "_deliver" not in vars(SocketNetwork)
    assert "self.latency.sample(" in inspect.getsource(SocketNetwork.send)
    sleeps = {path.name: path.read_text().count("asyncio.sleep") for path in _sources("repro/net")}
    assert {name: n for name, n in sleeps.items() if n} == {"transport.py": 2}


def test_retired_private_names_stay_gone():
    """Names no signature shows; the queries are lookups; one spelling of the znode path."""
    retired = {
        "repro/bloom": ("_versions", "eval_delta", "DeltaContext", "def eval(", "_dirty", "plugin"),
        "repro/bloom/rewrite.py": ("def handle",),
        "repro/core/graph.py": ("def signature",),
        "repro/storm/executor.py": ("OrderedInbox",),
        "repro/sim": ("_pool", "_recycle", "_POOL_LIMIT"),
        "repro/core": ("lru_cache", "functools.cache"),
        "repro/core/analysis.py": ("_interface_graph", "_Node", "_component_replicated", "_inputs_for"),
        "repro": ("seal.frame", "SEAL_FRAME", '"global"', "_ACTIVE", "activate", "active_config", "_apply_in_order",
                  "FailureInjector", "check_fault", "timed_detail", "PoolStats", '"--engine"',
                  "_quiet", "ticks_skipped", "stale_items_dropped"),
        "repro/chaos/schedule.py": ("def compile(",),
        "repro/exec/pool.py": (".last",),
        "repro/exec/cache.py": (".hits", ".misses"),
        "repro/net": ("socket_backend", "resolve_backend", "from_env"),
    }
    for under, names in retired.items():
        paths = _sources(under) if (SRC / under).is_dir() else [SRC / under]
        assert not (found := [(p.name, n) for p in paths for n in names if n in p.read_text()]), found
    assert not (SRC / "repro" / "bench" / "timing.py").exists()
    assert "_streams" not in inspect.getsource(Dataflow.streams_into)
    spelled = {str(p.relative_to(SRC)): p.read_text().count("producers/") for p in _sources()}
    assert {name: n for name, n in spelled.items() if n} == {"repro/coord/sealing.py": 1}


def test_nothing_under_src_is_unread_or_called_only_by_tests_without_a_reason():
    """``tools/surface.py``'s lists (a) and (c) stay empty but for definitions kept with a reason."""
    assert surface.unread_attributes() == []
    assert [row for row in surface.definitions_only_tests_call() if row[2] not in surface.KEPT] == []


def test_a_default_every_caller_sets_to_one_value_is_a_constant_or_kept_with_a_reason():
    """List (b) holds only entries kept with a reason, and every kept entry is still listed."""
    listed = surface.one_value_defaults() + surface.definitions_only_tests_call()
    assert [row for row in surface.one_value_defaults() if row[2] not in surface.KEPT] == []
    assert sorted(surface.KEPT) == sorted(row[2] for row in listed)


def test_list_b_counts_each_call_by_the_value_it_passes(tmp_path):
    """Literals and left-out arguments are values; a name or a splat is a second value."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "import dataclasses\n"
        "def f(a, b=1, *, c=2, d=3, e=4): ...\n"
        "class Base:\n"
        "    def __init__(self, x=0, y=0): ...\n"
        "class Sub(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(5)\n"
        "class Kid(Base): ...\n"
        "@dataclasses.dataclass\n"
        "class Rec:\n"
        "    p: int = 0\n"
        "    q: int = 0\n"
        "    r: int = dataclasses.field(default=0, init=False)\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "f(0, 1, c=2)\n"
        "f(0, d=n)\n"
        "f(0, **kw)\n"
        "Kid(x=5, y=1)\n"
        "r = Rec(1)\n"
        "dataclasses.replace(r, q=2)\n"
    )
    rows = surface.one_value_defaults.__wrapped__(tmp_path)
    assert [name for _path, _line, name in rows] == ["Base(x=)", "Rec.p"]


def test_list_c_does_not_count_a_lazy_packages_reexport_table(tmp_path):
    """The names a lazy ``__init__`` re-exports are not uses, as an ``__all__`` list is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro._lazy import _lazy_exports\n"
        "__all__, __getattr__, __dir__ = _lazy_exports(__name__, {'.mod': ('only_tests', 'used')})\n"
    )
    (package / "mod.py").write_text("def only_tests(): ...\ndef used(): ...\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text("from repro import used\n")
    rows = surface.definitions_only_tests_call.__wrapped__(tmp_path)
    assert [name for _path, _line, name in rows] == ["only_tests()"]
