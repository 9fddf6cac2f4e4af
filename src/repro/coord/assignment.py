"""Replica assignment: mapping logical components onto task replicas.

The paper's protocols are stated over *components* (an ad server, a bolt),
but a scaled deployment runs each component as several task replicas.  Two
facts must then be derived from the actual replica layout rather than
assumed one-task-per-component:

* **partition routing** — a fields/partition key must map to the same
  replica everywhere, which requires a deterministic cross-process hash
  (:func:`stable_hash`; Python's builtin ``hash`` is salted per process);
* **seal producer sets** — the unanimous voting round of the seal protocol
  (see :mod:`repro.coord.sealing` and ``docs/architecture.md`` §V-B1)
  must wait for exactly the set of *tasks* that can emit records for a
  partition, not the set of logical components.

:class:`ReplicaAssignment` owns both derivations so the executor's router
(:mod:`repro.storm.executor`) and the seal registry preloads
(:mod:`repro.apps.ad_network`) agree on one layout.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Mapping
from typing import Any, Hashable

from repro.errors import SimulationError

__all__ = ["stable_hash", "ReplicaAssignment"]


def stable_hash(value: Any) -> int:
    """A deterministic cross-run hash (``hash()`` is salted per process)."""
    return zlib.crc32(repr(value).encode("utf-8"))


class ReplicaAssignment:
    """The task replicas of a set of logical components.

    ``replicas`` maps component name to replica count.  Task names follow
    the executor's convention ``{component}#{index}``; a component with a
    single replica may optionally keep its bare name (``collapse_single``),
    which is the degenerate one-task-per-component layout the seed code
    assumed.
    """

    def __init__(
        self,
        replicas: Mapping[str, int],
        *,
        collapse_single: bool = False,
    ) -> None:
        for component, count in replicas.items():
            if count < 1:
                raise SimulationError(
                    f"component {component!r}: replica count must be >= 1"
                )
        self._replicas = dict(replicas)
        # precomputed: tasks_of sits on the executor's per-tuple routing
        # path, and the layout is immutable after construction
        self._tasks = {
            component: (
                (component,)
                if count == 1 and collapse_single
                else tuple(f"{component}#{i}" for i in range(count))
            )
            for component, count in self._replicas.items()
        }

    def replica_count(self, component: str) -> int:
        try:
            return self._replicas[component]
        except KeyError:
            raise SimulationError(f"unknown component {component!r}") from None

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

    def producer_tasks(
        self,
        components: Iterable[str],
        partition: Hashable | None = None,
    ) -> frozenset[str]:
        """The task-level producer set for one partition.

        With ``partition=None`` every replica of every producing component
        is a producer (round-robin or shuffle emission).  With a partition
        key, each component contributes only the replica the key routes to
        — the placement that keeps seal votes small (paper Section X,
        "coordination locality").
        """
        if partition is None:
            return frozenset(
                name
                for component in components
                for name in self.tasks_of(component)
            )
        return frozenset(
            self.task_for(component, partition) for component in components
        )

    def producer_sets(
        self,
        component_sets: Mapping[Hashable, Iterable[str]],
        *,
        partitioned: bool = True,
    ) -> dict[Hashable, frozenset[str]]:
        """Expand component-level producer sets to task-level sets.

        ``component_sets`` maps partition to the components that produce
        it; the result maps each partition to concrete task names, ready to
        preload into the seal registry (one znode per partition).
        """
        return {
            partition: self.producer_tasks(
                components, partition if partitioned else None
            )
            for partition, components in component_sets.items()
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}x{n}" for c, n in self._replicas.items())
        return f"ReplicaAssignment({inner})"
