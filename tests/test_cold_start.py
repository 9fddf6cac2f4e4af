"""What a fresh process loads: one layer of ``repro`` compiles that layer.

The packages that re-export their submodules' names (``repro``,
``repro.core``, ``repro.exec``, ``repro.chaos``) resolve each name on
first access (``repro/_lazy.py``), and the YAML, process-pool and socket
stacks are imported where they are used.  Each check runs in a new
interpreter, because this one has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAZY_PACKAGES = ("repro", "repro.core", "repro.exec", "repro.chaos")


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return the JSON its last line prints."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("BLAZES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _loaded(modules: list[str], names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` (a module or a package and its submodules) are loaded."""
    return sorted(
        name for name in names if any(m == name or m.startswith(name + ".") for m in modules)
    )


def test_the_analyzer_and_the_cache_directory_load_no_other_layer():
    modules = _fresh(
        "import json, sys\n"
        "from repro.exec import default_cache_dir\n"
        "from repro.core import analyze\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unused = (
        "yaml", "multiprocessing", "concurrent.futures", "asyncio",
        "repro.sim", "repro.bloom", "repro.bench", "repro.chaos",
    )
    assert _loaded(modules, unused) == []


def test_a_simulated_app_run_loads_no_socket_pool_yaml_or_campaign_stack():
    modules = _fresh(
        "import json, sys\n"
        "from repro.api import get_app\n"
        "get_app('adnet').run('seal', smoke=True)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unused = (
        "asyncio", "ssl", "multiprocessing", "yaml",
        "repro.net.services", "repro.chaos.campaign",
    )
    assert _loaded(modules, unused) == []


def test_every_lazily_exported_name_is_its_defining_modules_object():
    """Each name of a lazy package's ``__all__`` resolves, on first access,
    to the very object its defining module binds, inside that package."""
    checked = _fresh(
        "import importlib, json, sys\n"
        "# constants carry no __module__: where they are defined\n"
        "CONSTANTS = {'CACHE_SCHEMA_VERSION': 'repro.exec.cache', 'JOBS_ENV': 'repro.exec.engine',\n"
        "             '__version__': 'repro'}\n"
        "report = {}\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    assert len(set(package.__all__)) == len(package.__all__), name\n"
        "    assert set(package.__all__) <= set(dir(package)), name\n"
        "    for export in package.__all__:\n"
        "        value = getattr(package, export)\n"
        "        home = CONSTANTS.get(export) or value.__module__\n"
        "        assert home == name or home.startswith(name + '.'), (name, export, home)\n"
        "        assert vars(sys.modules[home])[export] is value, (name, export, home)\n"
        "    try:\n"
        "        getattr(package, 'no_such_name')\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        "    report[name] = len(package.__all__)\n"
        "print(json.dumps(report))\n"
    )
    assert set(checked) == set(LAZY_PACKAGES) and all(checked.values())
