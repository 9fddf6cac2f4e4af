"""The naive Bloom fixpoint engine: the executable reference semantics.

A :class:`BloomRuntime` subclass that overrides :meth:`tick` with the
textbook loop, so the differential tests substitute it from the outside
and ``src/`` carries no engine switch.  A timestep here is entirely its
own — boundary, fixpoint, end-of-step rules and output collection — so
the differential suite compares two implementations and never one with
itself; what it inherits is the part that is not a timestep (storage
layout, the external ``insert`` / ``deliver`` queues, stratification,
the async-send transport check, ``read``).  Keep the loop frozen (``rt``
is the runtime itself): it is what ``BloomRuntime.tick`` must stay equal
to.

:func:`naive_eval` is the other half of the reference: every operator of
:mod:`repro.bloom.ast` evaluated from scratch against full snapshots.
``src/`` only ever runs the compiled incremental pipelines
(:func:`repro.bloom.ast.compile_rule`); this is what they must agree with.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bloom.ast import (
    AGGREGATES,
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
from repro.bloom.runtime import BloomRuntime

__all__ = ["NaiveBloomRuntime", "naive_eval"]

Env = Mapping[str, frozenset[tuple]]


def naive_eval(node: Node, env: Env) -> frozenset[tuple]:
    """The node's full output over ``env`` (collection name -> tuple set)."""
    if isinstance(node, Scan):
        return env.get(node.collection, frozenset())
    if isinstance(node, Const):
        return node.rows
    if isinstance(node, Union):
        out: set[tuple] = set()
        for part in node.parts:
            out |= naive_eval(part, env)
        return frozenset(out)
    if isinstance(node, Project):
        indexes = [node.child._index(src) for src, _ in node._pairs]
        return frozenset(
            tuple(row[i] for i in indexes) for row in naive_eval(node.child, env)
        )
    if isinstance(node, Calc):
        indexes = [node.child._index(d) for d in node.deps]
        return frozenset(
            row + (node.fn(*(row[i] for i in indexes)),)
            for row in naive_eval(node.child, env)
        )
    if isinstance(node, Select):
        schema = node.child.schema
        return frozenset(
            row
            for row in naive_eval(node.child, env)
            if node.predicate(dict(zip(schema, row)))
        )
    if isinstance(node, Join):
        lidx = [node.left._index(l) for l, _ in node.on]
        ridx = [node.right._index(r) for _, r in node.on]
        keep_idx = [node.right._index(c) for c in node._right_keep]
        index: dict[tuple, list[tuple]] = {}
        for row in naive_eval(node.right, env):
            index.setdefault(tuple(row[i] for i in ridx), []).append(row)
        return frozenset(
            lrow + tuple(rrow[i] for i in keep_idx)
            for lrow in naive_eval(node.left, env)
            for rrow in index.get(tuple(lrow[i] for i in lidx), ())
        )
    if isinstance(node, AntiJoin):
        lidx = [node.left._index(l) for l, _ in node.on]
        ridx = [node.right._index(r) for _, r in node.on]
        present = {
            tuple(row[i] for i in ridx) for row in naive_eval(node.right, env)
        }
        return frozenset(
            row
            for row in naive_eval(node.left, env)
            if tuple(row[i] for i in lidx) not in present
        )
    if isinstance(node, GroupBy):
        key_idx = [node.child._index(k) for k in node.keys]
        groups: dict[tuple, list[tuple]] = {}
        for row in naive_eval(node.child, env):
            groups.setdefault(tuple(row[i] for i in key_idx), []).append(row)
        rows_out = []
        for key, rows in groups.items():
            agg_values = []
            for _out, agg_name, col in node.aggs:
                if col is None:
                    values = rows
                else:
                    idx = node.child._index(col)
                    values = [row[idx] for row in rows]
                agg_values.append(AGGREGATES[agg_name](values))
            rows_out.append(key + tuple(agg_values))
        return frozenset(rows_out)
    raise TypeError(f"no naive evaluation for {type(node).__name__}")


class NaiveBloomRuntime(BloomRuntime):
    """Textbook stratified-naive evaluation (the reference semantics).

    Every fixpoint iteration rebuilds a full frozenset snapshot of every
    collection and re-evaluates every rule in the stratum from scratch;
    per-tick cost grows with total state.  Kept as the executable
    specification :meth:`BloomRuntime.tick` is differentially tested
    against (``tests/bloom/test_engine_equivalence.py``).
    """

    def tick(self) -> dict[str, frozenset[tuple]]:
        rt = self
        # boundary: every transient collection empties; pending deletes
        # apply before pending inserts (insertion wins a same-step race)
        inserts, rt._pending_inserts = rt._pending_inserts, {}
        deletes, rt._pending_deletes = rt._pending_deletes, {}
        for decl in rt.module.declarations:
            if decl.transient:
                rt.storage[decl.name] = set()
            else:
                rt.storage[decl.name] -= deletes.get(decl.name, set())
            rt.storage[decl.name] |= inserts.get(decl.name, set())

        # instantaneous rules to fixpoint, one stratum at a time, so
        # nonmonotonic operators see only the final contents of lower
        # strata.
        for stratum in rt._strata:
            changed = True
            while changed:
                changed = False
                env = {
                    name: frozenset(rows) for name, rows in rt.storage.items()
                }
                for info in stratum:
                    produced = naive_eval(info.rule.rhs, env)
                    target = rt.storage[info.lhs]
                    before = len(target)
                    for row in produced:
                        target.add(info.decl.check_arity(row))
                    if len(target) != before:
                        changed = True

        # end of step: deferred / deletion / async rules.
        env = {name: frozenset(rows) for name, rows in rt.storage.items()}
        for info in rt._end_rules:
            rule = info.rule
            produced = naive_eval(rule.rhs, env)
            if rule.deferred:
                pending = rt._pending_inserts.setdefault(rule.lhs, set())
                pending.update(info.decl.check_arity(row) for row in produced)
            elif rule.deletion:
                pending = rt._pending_deletes.setdefault(rule.lhs, set())
                pending.update(tuple(row) for row in produced)
            elif rule.asynchronous:
                rt._send_async(rule.lhs, produced)

        rt.tick_count += 1
        return {
            decl.name: frozenset(rt.storage[decl.name])
            for decl in rt.module.outputs
        }
