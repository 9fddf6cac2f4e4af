"""The naive Bloom fixpoint engine: the executable reference semantics.

A :class:`BloomRuntime` subclass that overrides :meth:`tick` with the
textbook loop, so the differential tests substitute it from the outside
and ``src/`` carries no engine switch.  It shares the boundary,
async-send and output-collection code with the production runtime and
ignores its delta bookkeeping.  Keep the loop frozen (``rt`` is the
runtime itself): it is what ``BloomRuntime.tick`` must stay equal to.
"""

from __future__ import annotations

from repro.bloom.runtime import BloomRuntime

__all__ = ["NaiveBloomRuntime"]


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
        rt._apply_boundary()

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
                    produced = info.rule.rhs.eval(env)
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
            produced = rule.rhs.eval(env)
            if rule.deferred:
                pending = rt._pending_inserts.setdefault(rule.lhs, set())
                pending.update(info.decl.check_arity(row) for row in produced)
            elif rule.deletion:
                pending = rt._pending_deletes.setdefault(rule.lhs, set())
                pending.update(tuple(row) for row in produced)
            elif rule.asynchronous:
                rt._send_async(rule.lhs, produced)

        rt.tick_count += 1
        return rt._collect_outputs()
