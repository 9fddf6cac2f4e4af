"""The workload source the Bloom apps share.

Ad servers, analysts and the KVS client are all the same process: a
planned stream leaves in bursts, planned requests are posed on timers,
and every row travels through one
:func:`~repro.bloom.rewrite.strategy_producer` — so the source never
knows which coordination strategy is deployed.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence

from repro.bloom.rewrite import strategy_producer
from repro.errors import SimulationError
from repro.sim.network import Process

__all__ = ["PlannedSource", "check_workload", "runner_workload"]


def check_workload(workload) -> None:
    """Reject a workload dataclass where it is declared, not inside its run
    (a negative burst size rescheduled its burst forever): every field is a
    count or size ``>= 1``, except ``sleep``, finite and ``>= 0``."""
    name = type(workload).__name__
    for field in dataclasses.fields(workload):
        value = getattr(workload, field.name)
        if field.name == "sleep":
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise SimulationError(f"{name}.sleep must be finite and >= 0, got {value}")
        elif not value >= 1:
            raise SimulationError(f"{name}.{field.name} must be >= 1, got {value}")


def runner_workload(workload, cls):
    """The workload a runner was handed: a default ``cls()`` for ``None``,
    else a ``cls`` instance (``--set workload=3`` is an error here, not an
    AttributeError inside the run)."""
    if workload is None:
        return cls()
    if not isinstance(workload, cls):
        raise SimulationError(f"workload must be an instance of {cls.__name__}, got {workload!r}")
    return workload


class PlannedSource(Process):
    """Emits a planned workload under one coordination strategy.

    ``rows`` of ``collection`` leave in bursts of ``batch_size`` every
    ``sleep`` virtual seconds; the seal partition of a row is
    ``partition_of(row)``, and a partition is punctuated in the burst
    that ships its last record.  ``asks`` of ``ask_collection`` are posed
    one per ``ask_spacing``.  ``producer_kwargs`` go to
    :func:`~repro.bloom.rewrite.strategy_producer`.
    """

    def __init__(
        self,
        name: str,
        strategy,
        destinations: Sequence[str],
        *,
        collection: str = "",
        rows: Sequence[tuple] = (),
        partition_of: Callable[[tuple], object] = lambda row: None,
        batch_size: int = 1,
        sleep: float = 0.0,
        ask_collection: str = "",
        asks: Sequence[tuple] = (),
        ask_spacing: float = 0.0,
        **producer_kwargs,
    ) -> None:
        super().__init__(name)
        self.out = strategy_producer(self, strategy, destinations, **producer_kwargs)
        self.collection = collection
        self.rows = tuple(rows)
        self.partition_of = partition_of
        self.batch_size = batch_size
        self.sleep = sleep
        self.ask_collection = ask_collection
        self.asks = tuple(asks)
        self.ask_spacing = ask_spacing
        self._last_index = {
            partition_of(row): position for position, row in enumerate(self.rows)
        }
        self._cursor = 0

    @property
    def seal_partitions(self) -> frozenset:
        """Every seal-partition value the planned rows touch."""
        return frozenset(self._last_index)

    def on_start(self) -> None:
        if self.rows:
            self.after(0.0, self._burst)
        for index, row in enumerate(self.asks):
            self.after(self.ask_spacing * (index + 1), lambda r=row: self._ask(r))

    def _ask(self, row: tuple) -> None:
        self.out.emit(self.ask_collection, row)

    def _burst(self) -> None:
        start = self._cursor
        end = self._cursor = min(start + self.batch_size, len(self.rows))
        complete = []
        for position in range(start, end):
            row = self.rows[position]
            partition = self.partition_of(row)
            self.out.emit(self.collection, row, partition)
            if self._last_index[partition] == position:
                complete.append(partition)
        for partition in complete:
            self.out.seal(partition)
        if end < len(self.rows):
            self.after(self.sleep, self._burst)

    def recv(self, msg) -> None:
        raise SimulationError(f"source {self.name} got unexpected {msg.kind}")
