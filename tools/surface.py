"""What does ``src/repro`` let a caller set, and what of it does nothing
use?  An AST scan that runs in seconds, from the repository root::

    python tools/surface.py              # lists (a), (b) and (c) and the total
    python tools/surface.py --manifest   # the whole settable surface

Without a flag it prints three lists and a total, each under a header line
carrying its count:

(a) attributes stored under ``src/repro`` (an ``obj.name`` assignment
    target, ``+=`` included) that nothing in ``src/``, ``benchmarks/``
    or ``tests/`` reads: no attribute load of that name, and no string
    constant spelling it (``getattr(obj, "name")``);
(b) keyword-only parameters with a default, of functions under
    ``src/repro``, that no call in ``src/`` or ``benchmarks/`` passes:
    no keyword argument of that name, and no string spelling it as a dict
    key or subscript (parameters that travel in a ``**params`` mapping);
(c) public functions, methods and classes under ``src/repro`` that
    nothing outside ``tests/`` refers to: no ``Name``, ``Attribute``,
    imported name or identifier string in ``src/``, ``benchmarks/``,
    ``tools/`` or ``examples/`` spells them, where an ``__init__.py``
    import (a re-export) and an ``__all__`` list do not count;
``settable values``: the manifest's total.

An entry of list (b) or (c) kept on purpose carries its reason
(:data:`KEPT`).  Names are matched without their owner, so a use of any
attribute or definition of the same name anywhere keeps an entry off
lists (a) and (c): the scan can miss a write-only attribute or a
definition only tests call, but what it lists nothing outside the tests
uses.

``--manifest`` prints one sorted listing of everything a caller can set,
each section under a header counting its settable values: the
parameters and defaults of every public function and of every public
method (``__init__`` and ``__call__`` included) of every class, with the
class and its bases; every dataclass and ``NamedTuple`` field; every
``BLAZES_*``/``REPRO_*`` environment knob; the ``blazes`` parser as a
table, and each option string as often as ``cli.py`` declares it; then
lists (a), (b) and (c).  Defaults are rendered from the source with
``ast.unparse``, so the text holds no object address and does not depend
on the Python version or the hash seed.  Each list is scanned once per
process and cached, so a caller reading one again pays nothing.
``tests/goldens/surface.txt`` is its committed copy and
``tests/test_knobs.py`` diffs against it; after an *intended* change
regenerate it and review the diff::

    REPRO_REGEN_DIGESTS=1 PYTHONPATH=src python -m pytest tests/test_knobs.py
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import re
import sys
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# entries of lists (b) and (c) kept on purpose, and why they stay
KEPT = {
    "lint_dataflow(producers_per_partition=)":
        "examples/design_patterns.py sets it: the Fig. 14 coordination-locality demo",
    "BloomModule.notin()": "the Bloom language's antijoin: no app negates, the engine tests do",
    "FDSet.injectively_determines()":
        "Sec. V-A1's injectivefd whole, closure included: the FD tests fail on a lost "
        "non-injective FD, which compatible(), what the analysis asks, cannot see",
    "digest_cells()": "regenerates the seed pins, seed_digests.json, through the pool",
    "validate_rundir()": "the schema check of a run directory docs/observability.md documents",
}
# the trees whose references keep a definition off list (c)
CALLERS = ("src", "benchmarks", "tools", "examples")
# the dunder methods a caller sets values through
CALLED_DUNDERS = {"__init__", "__new__", "__call__"}
# a class decorator or base that makes the class body a list of fields
RECORD = re.compile(r"(dataclasses\.)?dataclass\b|(typing\.)?NamedTuple$")


def _trees(*dirs: Path) -> Iterator[tuple[Path, ast.Module]]:
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _strings(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@functools.cache
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


@functools.cache
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


def _referred(root: Path) -> set[str]:
    """Every name :data:`CALLERS` refer to, but for re-exports."""
    names: set[str] = set()
    for path, tree in _trees(*(root / top for top in CALLERS)):
        exported = {
            id(node)
            for statement in tree.body
            if isinstance(statement, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)
            for node in ast.walk(statement)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names.add(node.name.rpartition(".")[2])
            elif (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier() and id(node) not in exported
            ):
                names.add(node.value)
    return names


def _definitions(body: list[ast.stmt], owner: str = "") -> Iterator[tuple[ast.stmt, str]]:
    """``(node, "Owner.name")`` of the functions and classes in ``body``
    and, in every class, of its methods."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, f"{owner}{node.name}"
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{owner}{node.name}.")


@functools.cache
def definitions_only_tests_call(root: Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, "name()")`` of each public function or method, and
    ``"class Name"`` of each public class, under ``src/repro`` that nothing
    outside ``tests/`` refers to."""
    referred = _referred(root)
    return sorted(
        (
            str(path.relative_to(root)), node.lineno,
            f"class {name}" if isinstance(node, ast.ClassDef) else f"{name}()",
        )
        for path, tree in _trees(root / "src" / "repro")
        for node, name in _definitions(tree.body)
        if not node.name.startswith("_") and node.name not in referred
    )


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool) -> list[str]:
    """``function``'s parameters as written (``*`` before keyword-only ones),
    ``name=default`` where it has one; a bound method's first is left out."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    keyword = list(zip(args.kwonlyargs, args.kw_defaults))

    def spelled(arg: ast.arg, default: ast.expr | None) -> str:
        return arg.arg if default is None else f"{arg.arg}={ast.unparse(default)}"

    names = [spelled(arg, default) for arg, default in zip(positional, defaults)]
    if args.vararg:
        names.append(f"*{args.vararg.arg}")
    elif keyword:
        names.append("*")
    names += [spelled(arg, default) for arg, default in keyword]
    if args.kwarg:
        names.append(f"**{args.kwarg.arg}")
    return names[1:] if bound else names


def _callables(
    module: str, body: list[ast.stmt], owner: str | None = None
) -> Iterator[tuple[str, str, int]]:
    """``(name, line, settable values)`` of the public functions, the
    classes and the methods defined in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            name = f"{owner or module}.{node.name}"
            bases = ", ".join(ast.unparse(base) for base in node.bases + node.keywords)
            marks = "".join(f"  @{ast.unparse(d)}" for d in node.decorator_list)
            yield name, f"class {name}({bases}){marks}", 0
            yield from _callables(module, node.body, name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            not node.name.startswith("_") or (owner and node.name in CALLED_DUNDERS)
        ):
            decorators = [ast.unparse(d) for d in node.decorator_list]
            bound = owner is not None and "staticmethod" not in decorators
            parameters = _parameters(node, bound)
            name = f"{owner or module}.{node.name}"
            marks = "".join(f"  @{d}" for d in decorators)
            count = sum(p != "*" for p in parameters)
            yield name, f"def {name}({', '.join(parameters)}){marks}", count


def _record_fields(module: str, tree: ast.Module) -> Iterator[str]:
    """``Class.field[ = default]`` of each dataclass or ``NamedTuple``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [ast.unparse(d) for d in node.decorator_list] + [ast.unparse(b) for b in node.bases]
        if not any(RECORD.match(mark) for mark in marks):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            ):
                default = "" if item.value is None else f" = {ast.unparse(item.value)}"
                yield f"{module}.{node.name}.{item.target.id}{default}"


def environment_knobs() -> list[str]:
    """Every ``BLAZES_*``/``REPRO_*`` name ``src/repro`` spells: each read
    goes through a literal variable name, so a token scan finds them all."""
    return sorted({
        token
        for path in SRC.rglob("*.py")
        for token in re.findall(r"\b(?:BLAZES|REPRO)_[A-Z_]+", path.read_text())
        if not token.endswith("_")  # "BLAZES_NET_*" names the family
    })


def parser_table() -> dict:
    """verb -> its help line and, in declaration order, every argument."""
    if str(SRC.parent) not in sys.path:
        sys.path.insert(0, str(SRC.parent))
    from repro.cli import build_parser

    parser = build_parser()
    (verbs,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    helps = {choice.dest: choice.help for choice in verbs._choices_actions}

    def arguments(command: argparse.ArgumentParser) -> list[dict]:
        return [
            {
                "flags": list(action.option_strings) or [action.dest],
                "dest": action.dest,
                "action": type(action).__name__,
                "nargs": action.nargs,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "metavar": action.metavar,
                "help": action.help,
            }
            for action in command._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        ]

    table = {"blazes": {"help": parser.description, "arguments": arguments(parser)}}
    for verb, command in verbs.choices.items():
        table[verb] = {"help": helps[verb], "arguments": arguments(command)}
    return table


def declared_options() -> list[str]:
    """Each ``--option`` string as often as ``cli.py`` declares it: a key of
    its flag table or an ``add_argument`` call (verbs only *name* flags)."""

    def options(nodes) -> list[str]:
        return [
            node.value
            for node in nodes
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"--[a-z][a-z-]*", node.value)
        ]

    declared = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.Dict):  # a table entry: flag -> keywords
            declared += options(
                key
                for key, value in zip(node.keys, node.values)
                if isinstance(value, (ast.Dict, ast.Call))
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "add_argument":
                declared += options(node.args)
    return sorted(declared)


def _kept(name: str) -> str:
    return f"  ({KEPT[name]})" if name in KEPT else ""


def _settable() -> tuple[int, list[tuple[str, int, list[str]]]]:
    """The manifest's total and its sections before lists (a), (b) and (c)."""
    callables, fields, parameters = [], [], 0
    for path, tree in _trees(SRC):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, line, count in _callables(module, tree.body):
            callables.append((name, line))
            parameters += count
        fields += _record_fields(module, tree)
    table = parser_table()
    cli = []
    for verb, entry in table.items():
        cli.append(f"[{verb}] {entry['help']}")
        cli += [f"  {json.dumps(argument)}" for argument in entry["arguments"]]
    knobs = environment_knobs()
    arguments = sum(len(entry["arguments"]) for entry in table.values())
    declared = declared_options()
    sections = [
        ("parameters of public functions and methods", parameters,
         [line for _name, line in sorted(callables)]),
        ("dataclass and NamedTuple fields", len(fields), sorted(fields)),
        ("environment knobs", len(knobs), knobs),
        ("arguments of the blazes parser", arguments, cli),
        ("option strings cli.py declares", len(declared), declared),
    ]
    return parameters + len(fields) + len(knobs) + arguments, sections


def _lists() -> list[tuple[str, list[tuple[str, int, str]]]]:
    return [
        ("attributes stored and never read", unread_attributes()),
        ("keyword-only defaults no src/ or benchmarks/ call passes", unpassed_keywords()),
        ("public definitions nothing outside tests/ refers to", definitions_only_tests_call()),
    ]


def manifest() -> str:
    """The settable surface of ``src/repro`` as one text, total first."""
    total, sections = _settable()
    for title, rows in _lists():
        listed = [f"{path}  {name}{_kept(name)}" for path, _line, name in rows]
        sections.append((title, len(rows), listed))
    lines = [f"settable values: {total}"]
    for title, count, rows in sections:
        lines.append(f"{title}: {count}")
        lines += [f"  {row}" for row in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", action="store_true", help="print the whole settable surface")
    if parser.parse_args(argv).manifest:
        sys.stdout.write(manifest())
        return 0
    for title, rows in _lists():
        print(f"{title}: {len(rows)}")
        for path, line, name in rows:
            print(f"  {path}:{line}  {name}{_kept(name)}")
    print(f"settable values: {_settable()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
