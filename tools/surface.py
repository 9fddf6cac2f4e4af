"""Which values does ``src/repro`` store, and which options does it offer,
that nothing uses?  An AST scan that runs in seconds, from the repository
root::

    python tools/surface.py

It prints two lists, each under a header line carrying its count:

(a) attributes stored under ``src/repro`` (an ``obj.name`` assignment
    target, ``+=`` included) that nothing in ``src/``, ``benchmarks/``
    or ``tests/`` reads: no attribute load of that name, and no string
    constant spelling it (``getattr(obj, "name")``);
(b) keyword-only parameters with a default, of functions under
    ``src/repro``, that no call in ``src/`` or ``benchmarks/`` passes:
    no keyword argument of that name, and no string spelling it as a dict
    key or subscript (parameters that travel in a ``**params`` mapping).

Names are matched without their owner, so a read of any attribute of
the same name anywhere keeps an attribute off list (a): the scan can miss
a write-only attribute, but what it lists nothing reads.  List (b) is a
reading, not a gate: tests and examples may still set what it lists.
"""

from __future__ import annotations

import ast
import sys
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _trees(*dirs: Path) -> Iterator[tuple[Path, ast.Module]]:
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _strings(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unread_attributes(root: Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` of each attribute stored under ``src/repro``
    that nothing in ``src/``, ``benchmarks/`` or ``tests/`` reads."""
    stores: dict[str, tuple[str, int]] = {}
    for path, tree in _trees(root / "src" / "repro"):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and not node.attr.startswith("__")
            ):
                stores.setdefault(node.attr, (str(path.relative_to(root)), node.lineno))
    read: set[str] = set()
    for _path, tree in _trees(root / "src", root / "benchmarks", root / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read.update(_strings(tree))
    return sorted(
        (path, line, name) for name, (path, line) in stores.items() if name not in read
    )


def unpassed_keywords(root: Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, "function(name=)")`` of each keyword-only parameter
    with a default under ``src/repro`` that no ``src/`` or ``benchmarks/``
    call passes."""
    passed: set[str] = set()
    for _path, tree in _trees(root / "src", root / "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                passed.update(k.arg for k in node.keywords if k.arg is not None)
            elif isinstance(node, ast.Dict):
                passed.update(
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                passed.add(node.slice.value)
    found = []
    for path, tree in _trees(root / "src" / "repro"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and arg.arg not in passed:
                    found.append(
                        (str(path.relative_to(root)), node.lineno, f"{node.name}({arg.arg}=)")
                    )
    return sorted(found)


def main() -> int:
    for title, rows in (
        ("attributes stored and never read", unread_attributes()),
        ("keyword-only defaults no src/ or benchmarks/ call passes", unpassed_keywords()),
    ):
        print(f"{title}: {len(rows)}")
        for path, line, name in rows:
            print(f"  {path}:{line}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
