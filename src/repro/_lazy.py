"""Re-exported names resolved on first access (PEP 562).

A package ``__init__`` that re-exports its submodules' names imports
none of them up front: its module ``__getattr__`` imports the defining
submodule the first time a name is read and stores the name in the
package, so every later read is a plain attribute load.  Importing one
layer of ``repro`` then compiles that layer only — ``from repro.core
import analyze`` loads the analyzer, not the YAML stack behind
:mod:`repro.core.spec`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping


def _lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``, which
    re-exports each name ``table`` lists under its defining submodule
    (``".name"``, relative to ``package``)."""
    home = {name: package + module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # the import statement's path, so ``python -X importtime`` lists the module
        __import__(home[name])
        value = namespace[name] = getattr(sys.modules[home[name]], name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
