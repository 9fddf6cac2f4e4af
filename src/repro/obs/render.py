"""Text renderers for the observability CLI verbs.

``blazes run`` prints one outcome (with the coordcost line and the
profiler snapshot of an instrumented run); ``blazes stats`` the
per-strategy coordination-cost table; ``blazes trace`` the lineage
summary and per-id causal timelines; the sweeps one engine line and
``blazes cache stats`` the engine's cumulative ledger.
"""

from __future__ import annotations

from typing import Any

from repro.obs.spans import SpanTracker, format_slice

__all__ = [
    "coordcost_line",
    "engine_line",
    "render_engine",
    "render_lineages",
    "render_outcome",
    "render_profile",
    "render_stats",
    "render_timeline",
]


def coordcost_line(report: dict[str, Any]) -> str:
    """A one-line summary of one coordcost block."""
    share = report.get("coordination_share", 0.0)
    return (
        f"coordination: {report.get('coordination_messages', 0)}/"
        f"{report.get('messages_sent', 0)} messages ({share:.1%}), "
        f"{report.get('coordination_decisions', 0)} decisions, "
        f"{report.get('sim_time_overhead', 0.0):.4f}s sim-time overhead"
    )


def render_outcome(outcome) -> str:
    """The ``blazes run`` text: identity, scalar metrics, then the blocks
    an instrumented run's metrics carry (``coordcost``, ``profile``)."""
    lines = [
        f"app={outcome.app} backend={outcome.backend} "
        f"strategy={outcome.strategy} seed={outcome.seed}"
    ]
    width = max((len(name) for name in outcome.metrics), default=0)
    for name, value in outcome.metrics.items():
        if isinstance(value, dict):
            continue  # coordcost / profile blocks render below
        if isinstance(value, float):
            lines.append(f"  {name:<{width}} : {value:,.4f}")
        else:
            lines.append(f"  {name:<{width}} : {value}")
    if "coordcost" in outcome.metrics:
        lines.append(coordcost_line(outcome.metrics["coordcost"]))
    if "profile" in outcome.metrics:
        lines.append(render_profile(outcome.metrics["profile"]))
    return "\n".join(lines)


def engine_line(engine: dict[str, Any]) -> str:
    """A one-line summary of one evaluation-engine run (a sweep's is the
    fold of its batches)."""
    parts = [f"engine: {engine['cells']} cells", f"{engine['computed']} computed"]
    if engine["cache_enabled"]:
        parts.append(f"cache {engine['cache_hits']} hit/{engine['cache_misses']} miss")
    pool = engine["pool"]
    if pool:
        parts.append(f"pool jobs={pool['jobs']} util={pool['utilization']:.0%}")
    parts.append(f"{engine['wall_seconds']:.2f}s")
    return ", ".join(parts)


def render_engine(stats: dict[str, Any]) -> str:
    """The ledger ``blazes cache stats`` prints: the totals of
    ``stats.json``, then the last run's workers and engine line."""
    totals = stats.get("totals") or {}
    if not totals:
        return "no engine runs recorded (run an audit or benchmark with caching on)"
    lines = ["evaluation engine — cumulative"]
    for key in ("runs", "batches", "cells", "computed", "cache_hits", "cache_misses", "events"):
        lines.append(f"  {key.replace('_', ' '):<16}: {totals[key]:,}")
    pool = totals["pool"] or {}
    lines += [
        f"  pool tasks      : {pool.get('tasks', 0):,}",
        f"  pool busy (s)   : {pool.get('busy_seconds', 0.0):.2f}",
        f"  pool wall (s)   : {pool.get('wall_seconds', 0.0):.2f}",
    ]
    last = stats["last"]
    workers = last["pool"]["workers"] if last["pool"] else {}
    if workers:
        lines.append("  last run workers:")
        for pid, worker in sorted(workers.items()):
            lines.append(
                f"    pid {pid}: {worker['tasks']} tasks, "
                f"{worker['busy_seconds']:.2f}s busy, "
                f"{worker['events_per_second']:,.0f} events/s"
            )
    lines.append(f"  last run: {engine_line(last)}")
    return "\n".join(lines)


def render_stats(app_name: str, rows: list[tuple[str, dict[str, Any]]]) -> str:
    """The ``blazes stats`` table: one row per strategy."""
    header = (
        f"{'strategy':<18} {'messages':>9} {'coord':>7} {'share':>7} "
        f"{'decisions':>9} {'zk-time':>9}"
    )
    lines = [f"coordination cost — app={app_name}", header, "-" * len(header)]
    for strategy, report in rows:
        lines.append(
            f"{strategy:<18} {report.get('messages_sent', 0):>9} "
            f"{report.get('coordination_messages', 0):>7} "
            f"{report.get('coordination_share', 0.0):>6.1%} "
            f"{report.get('coordination_decisions', 0):>9} "
            f"{report.get('sim_time_overhead', 0.0):>8.4f}s"
        )
    topics = {
        label: count
        for _strategy, report in rows
        for label, count in report.get("topics", {}).items()
    }
    if topics:
        lines.append("")
        lines.append("coordination topics (all strategies): " + ", ".join(
            f"{label}={count}" for label, count in sorted(topics.items())
        ))
    return "\n".join(lines)


def render_profile(snapshot: dict[str, Any]) -> str:
    """The ``--profile`` section: the SimProfiler snapshot as text."""
    lines = [
        "profile:",
        f"  events          : {snapshot.get('events', 0):,}",
        f"  wall seconds    : {snapshot.get('wall_seconds', 0.0):.4f}",
        f"  events/second   : {snapshot.get('events_per_second', 0.0):,.0f}",
        f"  heap watermark  : {snapshot.get('heap_watermark', 0):,}",
    ]
    kinds = snapshot.get("event_kinds") or {}
    for name, count in list(kinds.items())[:10]:
        lines.append(f"  fire {name:<24} x{count:,}")
    messages = snapshot.get("message_kinds") or {}
    for name, count in sorted(messages.items()):
        lines.append(f"  msg  {name:<24} x{count:,}")
    return "\n".join(lines)


def render_lineages(spans: SpanTracker, *, limit: int = 20) -> str:
    """The ``blazes trace`` overview: busiest lineages first."""
    counts = spans.lineages()
    if not counts:
        return "no spans captured"
    lines = [f"{len(counts)} lineages, {len(spans.events)} span events"]
    if spans.dropped:
        lines.append(f"({spans.dropped} events dropped past the cap)")
    width = max(len(lineage) for lineage, _count in counts.most_common(limit))
    for lineage, count in counts.most_common(limit):
        lines.append(f"  {lineage:<{width}}  {count:>6} events")
    if len(counts) > limit:
        lines.append(f"  ... and {len(counts) - limit} more (use --id to inspect)")
    return "\n".join(lines)


def render_timeline(spans: SpanTracker, lineage: str, *, limit: int = 50) -> str:
    """The per-id causal timeline ``blazes trace --id`` prints."""
    rendered = format_slice(spans, lineage, limit=limit)
    if not rendered:
        known = ", ".join(sorted(spans.lineages())[:10]) or "none"
        return f"no span events for {lineage!r} (known lineages: {known})"
    return "\n".join([f"timeline {lineage}:"] + rendered)
