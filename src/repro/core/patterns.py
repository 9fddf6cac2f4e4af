"""Dataflow design-pattern lints (paper Section X).

The paper closes with placement guidance Blazes itself does not enforce:

* *replication belongs upstream of confluent components* — their order
  tolerance means cheap replication (gossip) suffices; replicating a
  non-confluent component forces ordered delivery to every replica;
* *caches belong downstream of confluent components* — confluent
  components never retract outputs, so append-only caching is safe;
  caching a non-confluent component's output can pin retracted answers;
* *coordination locality* — the nodes that must communicate to seal a
  partition should be few; a sealed stream whose partitions have many
  producers pays a wide unanimous vote per partition (the Figure 14
  contrast).

:func:`lint_dataflow` checks an analyzed dataflow against these patterns
and returns actionable findings; this is the "capturing these design
principles into a compiler" future-work item, minus the automatic rewrite.
"""

from __future__ import annotations

import dataclasses

from repro.core.analysis import AnalysisResult
from repro.core.graph import Component
from repro.core.labels import LabelKind
from repro.core.strategy import (
    CoordinationPlan,
    OrderStrategy,
    SealStrategy,
    choose_strategies,
)

__all__ = ["Finding", "lint_dataflow"]

REPLICATED_NONCONFLUENT = "replicated-nonconfluent"
CACHE_OF_NONCONFLUENT = "cache-of-nonconfluent"
WIDE_SEAL_QUORUM = "wide-seal-quorum"
REDUNDANT_ORDERING = "redundant-ordering"

# Producers per sealed partition from which a seal's unanimous vote is
# flagged as wide.
SEAL_QUORUM_THRESHOLD = 3


@dataclasses.dataclass(frozen=True)
class Finding:
    """One design-pattern finding.

    ``kind`` is one of the module-level constants; ``component`` the
    offender; ``message`` a human-readable explanation with the suggested
    restructuring.
    """

    kind: str
    component: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.component}: {self.message}"


def _is_confluent(component: Component) -> bool:
    return all(path.annotation.confluent for path in component.paths)


def _is_cache_like(component: Component) -> bool:
    """A heuristic for caching tiers: stateful, but every path confluent
    (append-only state) with at least one read-only path."""
    paths = component.paths
    return (
        any(p.annotation.stateful for p in paths)
        and all(p.annotation.confluent for p in paths)
        and any(not p.annotation.stateful for p in paths)
    )


def lint_dataflow(
    result: AnalysisResult,
    plan: CoordinationPlan | None = None,
    *,
    producers_per_partition: dict[str, int] | None = None,
) -> list[Finding]:
    """Check an analyzed dataflow against the Section X design patterns.

    ``producers_per_partition`` optionally maps sealed stream names to the
    number of producers contributing to each partition, enabling the
    coordination-locality check; streams absent from the map are skipped.
    """
    plan = plan if plan is not None else choose_strategies(result)
    dataflow = result.dataflow
    findings: list[Finding] = []

    for component in dataflow.components:
        replicated = component.rep or any(
            result.stream_rep.get(s.name, False)
            for s in dataflow.streams_into(component.name)
        )

        # 1. replication upstream of confluence: flag only when the
        # order sensitivity is not already discharged by a seal strategy
        if (
            component.rep
            and not _is_confluent(component)
            and isinstance(plan.strategy_for(component.name), OrderStrategy)
        ):
            findings.append(
                Finding(
                    REPLICATED_NONCONFLUENT,
                    component.name,
                    "replicated but not confluent: replicas require ordered "
                    "delivery to agree; move replication upstream of the "
                    "order-sensitive logic or make the component confluent",
                )
            )

        # 2. caches downstream of confluent components only
        if _is_cache_like(component) and replicated:
            for stream in dataflow.streams_into(component.name):
                label = result.stream_labels.get(stream.name)
                if label is not None and label.kind in (
                    LabelKind.INST,
                    LabelKind.RUN,
                    LabelKind.DIVERGE,
                ):
                    findings.append(
                        Finding(
                            CACHE_OF_NONCONFLUENT,
                            component.name,
                            f"caches stream {stream.name!r} labeled {label}: "
                            f"upstream may retract or disagree, so append-only "
                            f"caching pins stale answers; place the cache "
                            f"downstream of a confluent component instead",
                        )
                    )

        # 4. ordering applied where the analysis found no anomaly
        strategy = plan.strategy_for(component.name)
        if isinstance(strategy, OrderStrategy) and _is_confluent(component):
            findings.append(
                Finding(
                    REDUNDANT_ORDERING,
                    component.name,
                    "ordered delivery applied to a confluent component: the "
                    "coordination is unnecessary overhead",
                )
            )

    # 3. coordination locality of seal strategies
    producers_per_partition = producers_per_partition or {}
    for component in dataflow.components:
        strategy = plan.strategy_for(component.name)
        if not isinstance(strategy, SealStrategy):
            continue
        for stream_name, key in strategy.partitions:
            width = producers_per_partition.get(stream_name)
            if width is not None and width >= SEAL_QUORUM_THRESHOLD:
                findings.append(
                    Finding(
                        WIDE_SEAL_QUORUM,
                        component.name,
                        f"stream {stream_name!r} sealed on "
                        f"{{{','.join(sorted(key))}}} has {width} producers per "
                        f"partition: each release waits for a {width}-way "
                        f"unanimous vote; repartition the data so each "
                        f"partition has few producers (coordination locality)",
                    )
                )
    return findings
