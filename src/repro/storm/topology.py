"""Topology declaration API, modeled on Storm's ``TopologyBuilder``.

A topology is a dataflow of *spouts* (stream sources) and *bolts*
(components) wired by *groupings* (shuffle / fields).  Bolts may
carry Blazes path annotations (the grey-box metadata of paper Section VI-A)
which the adapter in :mod:`repro.storm.adapter` extracts into an analyzable
dataflow.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

from repro.errors import StormError
from repro.storm.tuples import Fields

__all__ = [
    "Spout",
    "Bolt",
    "Grouping",
    "BoltDeclarer",
    "Topology",
    "TopologyBuilder",
]


class Spout:
    """A stream source that emits numbered batches of tuples.

    ``next_batch(batch_id)`` returns the batch's value tuples, or ``None``
    when the source is exhausted.  Sources must be able to *replay* a batch
    (return the same contents when asked again) — this is the contract
    Storm's reliability machinery relies on.
    """

    output_fields: Fields = Fields()

    def next_batch(self, batch_id: int) -> list[tuple] | None:  # pragma: no cover
        raise NotImplementedError


class Bolt:
    """One processing component.

    Subclasses override :meth:`execute`; batch-aware bolts also override
    :meth:`finish_batch`, which runs when every tuple of a batch has been
    processed (the engine tracks batch punctuations automatically).

    ``blazes_annotations`` is a list of path-annotation mappings in spec
    syntax, e.g. ``{"from": "words", "to": "counts", "label": "OW",
    "subscript": ["word", "batch"]}`` — typically declared with the
    :func:`repro.api.annotate` class decorator rather than written by
    hand.
    """

    output_fields: Fields = Fields()
    blazes_annotations: list[dict[str, Any]] = []

    def prepare(self, task) -> None:
        """Called once per task instance before any tuples arrive."""

    def execute(self, tup, emit: Callable[[tuple], None]) -> None:  # pragma: no cover
        raise NotImplementedError

    def finish_batch(self, batch_id: int, emit: Callable[[tuple], None]) -> None:
        """Called once per task when a batch's tuples are all processed."""


@dataclasses.dataclass(frozen=True)
class Grouping:
    """How tuples from a source component route to a bolt's tasks."""

    source: str
    mode: str  # "shuffle" | "fields"
    fields: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("shuffle", "fields"):
            raise StormError(f"unknown grouping mode {self.mode!r}")
        if self.mode == "fields" and not self.fields:
            raise StormError("fields grouping requires at least one field")


@dataclasses.dataclass
class _Declaration:
    name: str
    factory: Callable[[], Any]
    parallelism: int
    groupings: list[Grouping]
    is_spout: bool


class BoltDeclarer:
    """Fluent grouping declaration, as in Storm."""

    def __init__(self, declaration: _Declaration) -> None:
        self._declaration = declaration

    def shuffle_grouping(self, source: str) -> "BoltDeclarer":
        self._declaration.groupings.append(Grouping(source, "shuffle"))
        return self

    def fields_grouping(self, source: str, *fields: str) -> "BoltDeclarer":
        self._declaration.groupings.append(Grouping(source, "fields", tuple(fields)))
        return self


@dataclasses.dataclass
class Topology:
    """An immutable topology description produced by the builder."""

    name: str
    declarations: dict[str, _Declaration]

    @property
    def spouts(self) -> tuple[str, ...]:
        return tuple(n for n, d in self.declarations.items() if d.is_spout)

    @property
    def bolts(self) -> tuple[str, ...]:
        return tuple(n for n, d in self.declarations.items() if not d.is_spout)

    def declaration(self, name: str) -> _Declaration:
        try:
            return self.declarations[name]
        except KeyError:
            raise StormError(f"unknown component {name!r}") from None

    def consumers_of(self, source: str) -> list[tuple[str, Grouping]]:
        """Bolts (with their groupings) that consume ``source``."""
        out = []
        for name, declaration in self.declarations.items():
            for grouping in declaration.groupings:
                if grouping.source == source:
                    out.append((name, grouping))
        return out

    def validate(self) -> None:
        """Check that every grouping references a declared component."""
        for name, declaration in self.declarations.items():
            if declaration.is_spout and declaration.groupings:
                raise StormError(f"spout {name!r} cannot declare groupings")
            for grouping in declaration.groupings:
                if grouping.source not in self.declarations:
                    raise StormError(
                        f"bolt {name!r} consumes unknown component "
                        f"{grouping.source!r}"
                    )
        for name in self.bolts:
            if not self.declarations[name].groupings:
                raise StormError(f"bolt {name!r} consumes nothing")


class TopologyBuilder:
    """Collects spout/bolt declarations and produces a :class:`Topology`."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._declarations: dict[str, _Declaration] = {}

    def set_spout(
        self, name: str, factory: Callable[[], Spout], parallelism: int = 1
    ) -> None:
        """Declare a spout.  ``factory`` builds one instance per run."""
        self._declare(name, factory, parallelism, is_spout=True)

    def set_bolt(
        self, name: str, factory: Callable[[], Bolt], parallelism: int = 1
    ) -> BoltDeclarer:
        """Declare a bolt; chain grouping calls on the returned declarer."""
        declaration = self._declare(name, factory, parallelism, is_spout=False)
        return BoltDeclarer(declaration)

    def _declare(
        self, name: str, factory, parallelism: int, *, is_spout: bool
    ) -> _Declaration:
        if name in self._declarations:
            raise StormError(f"duplicate component {name!r}")
        if parallelism < 1:
            raise StormError(f"component {name!r}: parallelism must be >= 1")
        declaration = _Declaration(name, factory, parallelism, [], is_spout)
        self._declarations[name] = declaration
        return declaration

    def build(self) -> Topology:
        topology = Topology(self.name, dict(self._declarations))
        topology.validate()
        return topology
