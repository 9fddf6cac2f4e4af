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
(b) defaulted parameters of public functions and methods (``__init__``
    included), and defaulted record fields, under ``src/repro``, whose
    calls in ``src/``, ``benchmarks/``, ``examples/`` and ``tools/`` use
    one value.  A call is matched by the callee's name: ``f(...)``,
    ``x.f(...)``, the class name (or a subclass's, or ``super().__init__``
    in one) for ``__init__`` parameters and record fields, and
    ``dataclasses.replace(x, field=...)`` for fields.  A call uses the
    literal it passes (``ast.literal_eval``), or the default when it
    leaves the argument out; a non-literal argument, or a ``*``/``**``
    splat, counts as a second value;
(c) public functions, methods and classes under ``src/repro`` that
    nothing outside ``tests/`` refers to: no ``Name``, ``Attribute``,
    imported name or identifier string in ``src/``, ``benchmarks/``,
    ``tools/`` or ``examples/`` spells them, where an ``__init__.py``
    import (a re-export) and the statement assigning ``__all__`` (a list,
    or a lazy package's re-export table) do not count;
``settable values``: the manifest's total.

An entry of list (b) or (c) kept on purpose carries its reason
(:data:`KEPT`).  Names are matched without their owner, so a use of any
attribute or definition of the same name anywhere keeps an entry off
lists (a) and (c), and every call of the same name counts toward list (b):
the scan can miss a write-only attribute, a definition only tests call or
a one-value default, but what it lists nothing outside the tests uses, or
sets to a second value.  List (c) is the view by name; the view by owner is the list of
functions no test entered that ``tools/unexecuted.py`` prints after its
line table, each under its ``code.co_qualname`` (``Class.method``), so a
method that hides behind a same-named definition shows up there.

``--manifest`` prints one sorted listing of everything a caller can set,
each section under a header counting its settable values: the
parameters and defaults of every public function and of every public
method (``__init__`` and ``__call__`` included) of every class, with the
class and its bases; every dataclass and ``NamedTuple`` field; every
``BLAZES_*``/``REPRO_*`` environment knob; the ``blazes`` parser as a
table, and each option string as often as ``cli.py`` declares it; then
lists (a), (b) and (c).  Defaults are rendered from the source with
``ast.unparse``, so the text holds no object address and does not depend
on the Python version or the hash seed.  Each file is parsed and walked
once per process, every list reads from that one parse, and each list is
cached, so a caller reading one again pays nothing.
``tests/goldens/surface.txt`` is its committed copy and
``tests/test_knobs.py`` diffs against it; after an *intended* change
regenerate it and review the diff::

    REPRO_REGEN_DIGESTS=1 PYTHONPATH=src python -m pytest tests/test_knobs.py
"""

from __future__ import annotations

import argparse
import ast
import functools
import itertools
import json
import re
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# entries of lists (b) and (c) kept on purpose, and why they stay
KEPT = {
    "BlazesApp.spec(strategy=)":
        "every derivation method takes a strategy, and this one should match",
    "JsonReporter(directory=)": "an output path",
    "Partition.symmetric": "schedule dicts, payload goldens and cache keys all spell it",
    "Trace.timeline(weighted=)":
        "weighting sums int data, and other events use int data for batch ids",
    "Node.where(refs=)": "rule data, not a setting",
    "BloomModule.notin()": "the Bloom language's antijoin: no app negates, the engine tests do",
    "FDSet.injectively_determines()":
        "Sec. V-A1's injectivefd whole, closure included: the FD tests fail on a lost "
        "non-injective FD, which compatible(), what the analysis asks, cannot see",
    "digest_cells()": "regenerates the seed pins, seed_digests.json, through the pool",
    "validate_rundir()": "the schema check of a run directory docs/observability.md documents",
}
# the trees whose calls and references lists (b) and (c) read
CALLERS = ("src", "benchmarks", "tools", "examples")
# the dunder methods a caller sets values through
CALLED_DUNDERS = {"__init__", "__new__", "__call__"}
# a class decorator or base that makes the class body a list of fields
RECORD = re.compile(r"(dataclasses\.)?dataclass\b|(typing\.)?NamedTuple$")


@functools.cache
def _parse(path: Path) -> tuple[ast.Module, tuple[ast.AST, ...]]:
    """``path``'s tree and every node of it, parsed and walked once per process."""
    tree = ast.parse(path.read_text(), str(path))
    return tree, tuple(ast.walk(tree))


def _trees(*dirs: Path) -> Iterator[tuple[Path, ast.Module]]:
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, _parse(path)[0]


def _nodes(*dirs: Path) -> Iterator[tuple[Path, tuple[ast.AST, ...]]]:
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield path, _parse(path)[1]


@functools.cache
def unread_attributes(root: Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` of each attribute stored under ``src/repro``
    that nothing in ``src/``, ``benchmarks/`` or ``tests/`` reads."""
    stores: dict[str, tuple[str, int]] = {}
    for path, nodes in _nodes(root / "src" / "repro"):
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and not node.attr.startswith("__")
            ):
                stores.setdefault(node.attr, (str(path.relative_to(root)), node.lineno))
    read: set[str] = set()
    for _path, nodes in _nodes(root / "src", root / "benchmarks", root / "tests"):
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(
        (path, line, name) for name, (path, line) in stores.items() if name not in read
    )


class _Param(NamedTuple):
    name: str
    positional: bool
    key: tuple[str, int, str] | None  # the entry of a defaulted parameter or field


def _signature(
    function: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool, entry: Callable
) -> list[_Param]:
    """``function``'s parameters; ``entry(arg, default)`` keys a defaulted one."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    params = [
        _Param(arg.arg, True, None if default is None else entry(arg.arg, default))
        for arg, default in zip(positional, defaults)
    ][1 if bound else 0:]
    return params + [
        _Param(arg.arg, False, None if default is None else entry(arg.arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
    ]


def _record(node: ast.ClassDef) -> bool:
    marks = [ast.unparse(d) for d in node.decorator_list] + [ast.unparse(b) for b in node.bases]
    return any(RECORD.match(mark) for mark in marks)


def _fields(node: ast.ClassDef) -> Iterator[tuple[str, ast.expr | None, bool]]:
    """``(name, default, settable)`` of each field a record class declares."""
    for item in node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and "ClassVar" not in ast.unparse(item.annotation)
        ):
            default, settable = item.value, True
            if isinstance(default, ast.Call) and ast.unparse(default.func).endswith("field"):
                options = {k.arg: k.value for k in default.keywords}
                settable = ast.unparse(options.get("init", ast.Constant(True))) != "False"
                default = options.get("default", options.get("default_factory"))
            yield item.target.id, default, settable


def _value(node: ast.expr) -> tuple[str, str] | None:
    """The literal ``node`` spells, as its type and ``repr``; ``None`` if it is none."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None
    return type(value).__name__, repr(value)


@functools.cache
def one_value_defaults(root: Path = ROOT) -> list[tuple[str, int, str]]:
    """``(path, line, name)`` of each defaulted parameter of a public function
    or method (``__init__`` included), ``"f(p=)"``, ``"Owner.f(p=)"`` or
    ``"Owner(p=)"``, and of each defaulted record field, ``"Owner.field"``,
    under ``src/repro``, that every call in :data:`CALLERS` sets to one value."""
    defaults: dict[tuple[str, int, str], ast.expr] = {}
    signatures: dict[str, list[list[_Param]]] = {}
    fields: dict[str, list[tuple[str, int, str]]] = {}  # field name -> its entries
    classes: dict[str, tuple[list[str], list[_Param] | None, list[_Param] | None]] = {}

    def entry(path: Path, line: int, label: str) -> Callable:
        """Keys a defaulted parameter ``arg`` as ``label.format(arg)``."""
        def key(arg: str, default: ast.expr) -> tuple[str, int, str]:
            key = (str(path.relative_to(root)), line, label.format(arg))
            defaults[key] = default
            return key
        return key

    def scan(path: Path, body: list[ast.stmt], owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(path, node.body, node.name)
                declared = None
                if _record(node):
                    kw_only = "kw_only=True" in "".join(map(ast.unparse, node.decorator_list))
                    declared = []
                    for name, default, settable in _fields(node):
                        key = None
                        if default is not None and settable:
                            key = (str(path.relative_to(root)), node.lineno, f"{node.name}.{name}")
                            defaults[key] = default
                            fields.setdefault(name, []).append(key)
                        if settable:
                            declared.append(_Param(name, not kw_only, key))
                init = next(
                    (item for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name == "__init__"), None,
                )
                if init is not None:
                    init = _signature(init, True, entry(path, init.lineno, f"{node.name}({{}}=)"))
                bases = [ast.unparse(base).rpartition(".")[2] for base in node.bases]
                classes[node.name] = (bases, init, declared)
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
            ):
                decorators = [ast.unparse(d) for d in node.decorator_list]
                if "property" in decorators or any(d.endswith(".setter") for d in decorators):
                    continue
                bound = owner is not None and "staticmethod" not in decorators
                label = f"{owner}.{node.name}({{}}=)" if owner else f"{node.name}({{}}=)"
                signatures.setdefault(node.name, []).append(
                    _signature(node, bound, entry(path, node.lineno, label))
                )

    for path, tree in _trees(root / "src" / "repro"):
        scan(path, tree.body, None)

    def constructor(name: str, seen: frozenset = frozenset()) -> list[_Param] | None:
        """What a call of class ``name`` sets: its ``__init__`` or its fields,
        a record's after those of its record bases, else its first base's."""
        if name not in classes or name in seen:
            return None
        bases, init, declared = classes[name]
        if init is not None:
            return init
        inherited = [constructor(base, seen | {name}) for base in bases]
        if declared is None:
            return next((params for params in inherited if params is not None), None)
        params = [p for base in inherited if base for p in base]
        own = {p.name for p in declared}
        return [p for p in params if p.name not in own] + declared

    for name in classes:
        if (params := constructor(name)) is not None:
            signatures.setdefault(name, []).append(params)

    values: dict[tuple[str, int, str], set] = {key: set() for key in defaults}
    open_ = set()  # entries some call sets to a non-literal, or through a splat

    def set_(key: tuple[str, int, str], node: ast.expr) -> None:
        value = _value(node)
        if value is None and node is not defaults[key]:
            open_.add(key)
        values[key].add(value)

    for _path, nodes in _nodes(*(root / top for top in CALLERS)):
        # ``super().__init__(...)`` in a class body calls its first base
        supers = {
            id(call): ast.unparse(node.bases[0]).rpartition(".")[2]
            for node in nodes if isinstance(node, ast.ClassDef) and node.bases
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "super().__init__"
        }
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = supers.get(id(call)) or (
                func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            )
            splat = any(k.arg is None for k in call.keywords)
            if callee in ("replace", "_replace"):
                for keyword in call.keywords:
                    for key in fields.get(keyword.arg, ()) if keyword.arg else ():
                        set_(key, keyword.value)
                if splat:
                    open_.update(key for keys in fields.values() for key in keys)
            args = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args))
            splat = splat or len(args) < len(call.args)
            passed = {k.arg: k.value for k in call.keywords if k.arg is not None}
            for params in signatures.get(callee, ()):
                passed_at = dict(zip((p.name for p in params if p.positional), args))
                for param in params:
                    if param.key is None:
                        continue
                    if param.name in passed or param.name in passed_at:
                        set_(param.key, passed.get(param.name, passed_at.get(param.name)))
                    elif splat:
                        open_.add(param.key)
                    else:
                        set_(param.key, defaults[param.key])
    return sorted(key for key, seen in values.items() if len(seen) == 1 and key not in open_)


def _referred(root: Path) -> set[str]:
    """Every name :data:`CALLERS` refer to, but for re-exports."""
    names: set[str] = set()
    for path, tree in _trees(*(root / top for top in CALLERS)):
        exported = {
            id(node)
            for statement in tree.body
            if isinstance(statement, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for target in statement.targets
                for t in ast.walk(target)
            )
            for node in ast.walk(statement)
        }
        for node in _parse(path)[1]:
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
        if not isinstance(node, ast.ClassDef) or not _record(node):
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
    for node in _parse(SRC / "cli.py")[1]:
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
        ("defaults every call outside tests/ sets to one value", one_value_defaults()),
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
