"""Tuples and field schemas for the Storm-like engine."""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from operator import itemgetter
from typing import Any

from repro.errors import StormError

__all__ = ["Fields", "StormTuple"]


class Fields:
    """An ordered field schema, as in Storm's ``Fields`` declaration."""

    def __init__(self, *names: str) -> None:
        if len(set(names)) != len(names):
            raise StormError(f"duplicate field names in {names}")
        self.names = tuple(names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise StormError(f"unknown field {name!r} (have {self.names})") from None

    def projector(self, names: tuple[str, ...]) -> Callable[[tuple], tuple]:
        """Resolve ``names`` to positions now; the result projects a value tuple.

        An unknown name raises :class:`StormError` here, not per tuple.
        """
        positions = [self.index_of(n) for n in names]
        if len(positions) == 1:  # a lone itemgetter index yields a scalar
            (position,) = positions
            return lambda values: (values[position],)
        return itemgetter(*positions) if positions else lambda values: ()

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __repr__(self) -> str:
        return f"Fields{self.names}"


@dataclasses.dataclass(frozen=True, slots=True)
class StormTuple:
    """One data tuple flowing through a topology.

    ``batch`` is the replay unit (paper Section I-B): every tuple belongs
    to exactly one numbered batch.
    """

    values: tuple[Any, ...]
    batch: int

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)
