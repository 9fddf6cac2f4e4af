"""Bloom modules: declarative programs with typed interfaces.

A module declares collections in :meth:`BloomModule.setup` and rules in
:meth:`BloomModule.rules`; the base class supplies a small combinator DSL
(``scan`` / ``project`` / ``join`` / ``notin`` / ``group_by`` / ...) whose
results are the :mod:`repro.bloom.ast` trees the white-box analyzer
inspects.  Input and output interfaces make modules composable and map
one-to-one onto dataflow components (paper Section VII-A).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.bloom.ast import (
    AntiJoin,
    Calc,
    Const,
    GroupBy,
    Join,
    Node,
    Project,
    Scan,
    Select,
    Union,
)
from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.rules import Rule
from repro.errors import BloomError

__all__ = ["BloomModule"]


class BloomModule:
    """Base class for Bloom programs.

    Subclasses override :meth:`setup` (collection declarations) and
    :meth:`rules` (the program).  Example::

        class Thresh(BloomModule):
            def setup(self):
                self.input_interface("click", ["campaign", "id", "uid"])
                self.output_interface("response", ["id"])
                self.table("clicks", ["campaign", "id", "uid"])

            def rules(self):
                counts = self.group_by(
                    self.scan("clicks"), ["id"], [("cnt", "count", None)]
                )
                hot = counts.where(lambda r: r["cnt"] > 1000, refs=["cnt"])
                return [
                    self.rule("clicks", "<=", self.scan("click")),
                    self.rule("response", "<=", hot.project("id")),
                ]
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self._decls: dict[str, CollectionDecl] = {}
        self._frozen = False
        self.setup()
        self._rules: tuple[Rule, ...] = tuple(self.rules())
        self._validate()
        # the declarations are final from here on: runtimes size their
        # storage from these tuples and read them on every tick
        self._frozen = True
        self.declarations: tuple[CollectionDecl, ...] = tuple(self._decls.values())
        self.inputs = tuple(
            d for d in self.declarations if d.kind is CollectionKind.INPUT
        )
        self.outputs = tuple(
            d for d in self.declarations if d.kind is CollectionKind.OUTPUT
        )

    # ------------------------------------------------------------------
    # overridable
    # ------------------------------------------------------------------
    def setup(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def rules(self) -> Iterable[Rule]:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    # collection declaration helpers
    # ------------------------------------------------------------------
    def _declare(self, name: str, kind: CollectionKind, schema) -> CollectionDecl:
        if self._frozen:
            raise BloomError(
                f"module {self.name}: collection {name!r} declared after "
                f"construction; declare collections in setup()"
            )
        if name in self._decls:
            raise BloomError(f"module {self.name}: duplicate collection {name!r}")
        decl = CollectionDecl(name, kind, tuple(schema))
        self._decls[name] = decl
        return decl

    def table(self, name: str, schema: Iterable[str]) -> CollectionDecl:
        """Persistent stored state."""
        return self._declare(name, CollectionKind.TABLE, schema)

    def scratch(self, name: str, schema: Iterable[str]) -> CollectionDecl:
        """Transient per-timestep state."""
        return self._declare(name, CollectionKind.SCRATCH, schema)

    def channel(self, name: str, schema: Iterable[str]) -> CollectionDecl:
        """Asynchronous network delivery; first column is ``@address``."""
        return self._declare(name, CollectionKind.CHANNEL, schema)

    def input_interface(self, name: str, schema: Iterable[str]) -> CollectionDecl:
        """Module ingress."""
        return self._declare(name, CollectionKind.INPUT, schema)

    def output_interface(self, name: str, schema: Iterable[str]) -> CollectionDecl:
        """Module egress."""
        return self._declare(name, CollectionKind.OUTPUT, schema)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def program(self) -> tuple[Rule, ...]:
        return self._rules

    def declaration(self, name: str) -> CollectionDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise BloomError(f"module {self.name}: unknown collection {name!r}") from None

    # ------------------------------------------------------------------
    # rule DSL
    # ------------------------------------------------------------------
    def rule(self, lhs: str, op: str, rhs: Node) -> Rule:
        """Build (and arity-check) one rule."""
        decl = self.declaration(lhs)
        if len(rhs.schema) != len(decl.schema):
            raise BloomError(
                f"module {self.name}: rule into {lhs!r} has arity "
                f"{len(rhs.schema)} {rhs.schema}, expected {len(decl.schema)} "
                f"{decl.columns}"
            )
        if decl.kind is CollectionKind.INPUT:
            raise BloomError(
                f"module {self.name}: rules may not write input interface {lhs!r}"
            )
        return Rule(lhs, op, rhs)

    def scan(self, name: str) -> Scan:
        """Read a declared collection."""
        decl = self.declaration(name)
        return Scan(name, decl.columns)

    def const(self, rows: Iterable[tuple], schema: Iterable[str]) -> Const:
        return Const(rows, schema)

    @staticmethod
    def project(node: Node, cols: Iterable[str | tuple[str, str]]) -> Project:
        return Project(node, cols)

    @staticmethod
    def calc(node: Node, out: str, fn: Callable, deps: Iterable[str]) -> Calc:
        return Calc(node, out, fn, deps)

    @staticmethod
    def select(node: Node, predicate: Callable, refs: Iterable[str] = ()) -> Select:
        return Select(node, predicate, tuple(refs))

    @staticmethod
    def join(left: Node, right: Node, on: Iterable[tuple[str, str]]) -> Join:
        return Join(left, right, on)

    @staticmethod
    def notin(left: Node, right: Node, on: Iterable[tuple[str, str]]) -> AntiJoin:
        return AntiJoin(left, right, on)

    @staticmethod
    def group_by(
        node: Node,
        keys: Iterable[str],
        aggs: Iterable[tuple[str, str, str | None]],
        *,
        monotone: bool = False,
    ) -> GroupBy:
        return GroupBy(node, keys, aggs, monotone=monotone)

    @staticmethod
    def union(*parts: Node) -> Union:
        return Union(*parts)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for rule in self._rules:
            for scanned in rule.rhs.scans():
                decl = self.declaration(scanned)
                if decl.kind is CollectionKind.OUTPUT:
                    raise BloomError(
                        f"module {self.name}: rule reads output interface "
                        f"{scanned!r}"
                    )

    def __repr__(self) -> str:
        return (
            f"BloomModule({self.name!r}, collections={len(self._decls)}, "
            f"rules={len(self._rules)})"
        )
