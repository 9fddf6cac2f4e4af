"""Replica assignment: mapping logical components onto task replicas.

The storm topologies are stated over *components* (a spout, a bolt), but a
scaled deployment runs each component as several task replicas, and a
fields/partition key must map to the same replica everywhere.  That needs
a deterministic cross-process hash (:func:`stable_hash`; Python's builtin
``hash`` is salted per process), and one owner of the layout:
:class:`ReplicaAssignment`, which the executor's router
(:mod:`repro.storm.executor`) and its punctuation bookkeeping share.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from typing import Any, Hashable

from repro.errors import SimulationError

__all__ = ["stable_hash", "ReplicaAssignment"]


def stable_hash(value: Any) -> int:
    """A deterministic cross-run hash (``hash()`` is salted per process)."""
    return zlib.crc32(repr(value).encode("utf-8"))


class ReplicaAssignment:
    """The task replicas of a set of logical components.

    ``replicas`` maps component name to replica count.  Task names follow
    the executor's convention ``{component}#{index}``.
    """

    def __init__(self, replicas: Mapping[str, int]) -> None:
        for component, count in replicas.items():
            if count < 1:
                raise SimulationError(
                    f"component {component!r}: replica count must be >= 1"
                )
        # precomputed: tasks_of sits on the executor's per-tuple routing
        # path, and the layout is immutable after construction
        self._tasks = {
            component: tuple(f"{component}#{i}" for i in range(count))
            for component, count in replicas.items()
        }

    def tasks_of(self, component: str) -> tuple[str, ...]:
        """Every task name a component runs as."""
        try:
            return self._tasks[component]
        except KeyError:
            raise SimulationError(f"unknown component {component!r}") from None

    def task_for(self, component: str, key: Hashable) -> str:
        """The replica a partition/fields key routes to (stable hashing)."""
        tasks = self.tasks_of(component)
        return tasks[stable_hash(key) % len(tasks)]

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}x{len(tasks)}" for c, tasks in self._tasks.items())
        return f"ReplicaAssignment({inner})"
