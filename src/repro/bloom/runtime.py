"""Single-node Bloom runtime: timestep (fixpoint) evaluation.

Bloom's operational model evaluates a program in *timesteps*.  Within one
timestep:

1. externally arriving tuples (channel deliveries, interface inserts) and
   merges deferred from the previous step become visible;
2. the instantaneous (``<=``) rules run to a set-theoretic fixpoint,
   *stratum by stratum*: a rule whose body aggregates or negates a
   collection belongs to a strictly higher stratum than every rule that
   feeds that collection, so nonmonotonic operators only ever observe the
   final contents of their inputs (stratified evaluation, as in classical
   Datalog and Bud; the paper leans on this in Section III-C);
3. the deferred (``<+``), deletion (``<-``), and asynchronous (``<~``)
   rules are evaluated against the fixpoint; deferred merges apply at the
   start of the next step, and async tuples are handed to the transport.

Tables persist across steps; scratches, channels and interfaces hold one
step's rows only.  The fixpoint terminates because ``<=`` only ever adds
tuples within a step.  Programs with recursion through
negation/aggregation are rejected as unstratifiable.

**Simultaneous deferred insert and delete.**  At a boundary the pending
``<-`` deletions apply *before* the pending ``<+`` insertions, so a tuple
both deferred-inserted and deferred-deleted survives.  This is Bud's
behavior — insertion wins a same-boundary race — and the "replace a row"
idiom (``t <- old_row; t <+ new_row``) relies on it;
``test_simultaneous_deferred_insert_and_delete`` pins it.

**Evaluation.**  The fixpoint is semi-naive and event-driven.  Every rule
keeps a materialized output and a pipeline compiled once from its body
(:func:`repro.bloom.ast.compile_rule`: per-operator hash indexes held in
closures); a map from each collection to the rules that scan it, built at
construction, hands every published change to exactly those rules, and a
rule that was clean joins its stratum's *worklist*.  A stratum runs in
waves, each taking the whole worklist, so a wave is "the dirty rules of
this stratum" and nothing is polled or scanned.  A tick
costs O(|delta|) — what arrived, what the rules derive from it, and the
re-assertion of those rule-written transients that are not standing sinks
— never O(|database|), and nothing at all for an unchanged output.  The
textbook engine (snapshot every collection, re-evaluate every rule, every
iteration) is the reference semantics: it lives test-only in
``tests/reference/naive_engine.py``, boundary and output collection
included, and ``tests/bloom/test_engine_equivalence.py`` holds this runtime
to identical fixpoints, tick for tick, on randomized programs.

**Standing sinks.**  An output interface that no rule scans and only ``<=``
rules derive ends every step holding the union of its writers' materialized
outputs, so clearing it at the boundary and re-asserting it rebuilds what
is already there.  The boundary skips such a sink and a writer's firing
applies its own ``(added, removed)`` delta to it: a retracted row stays
while another writer still derives it, and one retracted after its
stratum's first wave lingers until the next boundary (the textbook target
had already accumulated it this step).  Three kinds of transient are *not*
standing and keep clear-and-re-assert, which they need: one a rule scans
(its readers must see rows go and come back), one a ``<+`` rule defers into
(its rows arrive through the boundary), and one that takes external input
(scratches, channels, input interfaces).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.bloom.ast import (
    NO_CHANGE,
    NO_ROWS,
    AntiJoin,
    Delta,
    GroupBy,
    Scan,
    Step,
    compile_rule,
)
from repro.bloom.collections import CollectionDecl, CollectionKind
from repro.bloom.module import BloomModule
from repro.bloom.rules import Rule
from repro.errors import BloomError

__all__ = ["BloomRuntime"]

ChannelSend = Callable[[str, str, tuple], None]


class _RuleState:
    """One rule, its cached metadata, and the runtime's mutable view of it.

    ``scans`` and ``negated`` are computed once at runtime construction
    and shared by the stratifier and the change routing.  ``step`` is the
    body's compiled pipeline, built on the first firing (its cost shows in
    the first tick, where lazily built indexes always showed); ``out`` is
    the rule's materialized output — kept exactly equal to the body
    evaluated from scratch over current storage (``naive_eval`` in
    ``tests/reference``) by delta propagation.  ``inbox`` is the net change
    of each scanned collection published since the rule last fired, and
    ``None`` while the rule is clean: a rule is dirty — it never fired, its
    inbox filled, or it must ``reassert`` its output into a target that
    lost rows (``standing``: the target is a standing sink, which never
    does) — exactly while its inbox is a dict, and exactly then it sits on
    ``work``, its stratum's worklist (the end-of-step rules share one).
    The body's width is checked here, once, and not per derived row.
    """

    __slots__ = (
        "rule", "lhs", "scans", "negated", "decl",
        "step", "out", "inbox", "reassert", "standing", "work",
    )

    def __init__(self, rule: Rule, decl: CollectionDecl) -> None:
        if len(rule.rhs.schema) != len(decl.schema):
            raise BloomError(f"rule {rule} derives {rule.rhs.schema}, not {decl.columns}")
        self.rule = rule
        self.lhs = rule.lhs
        self.scans: frozenset[str] = rule.rhs.scans()
        self.negated = _negated_scans(rule.rhs)
        self.decl = decl
        self.step: Step | None = None
        self.out: set[tuple] = set()
        self.inbox: dict[str, Delta] | None = {}  # dirty: the first firing is due
        self.reassert = False
        self.work: list[_RuleState] = []


class BloomRuntime:
    """Evaluates one module instance, one timestep at a time.

    ``on_channel_send(channel, address, row)`` is invoked for every tuple
    an async rule inserts into a channel; the cluster layer routes it over
    the simulated network.

    :meth:`tick` is *exactly* equivalent to textbook stratified-naive
    evaluation (``tests/reference/naive_engine.py``) — the whole per-tick
    storage trajectory matches, iteration for iteration — via four
    observations:

    * a rule whose scanned collections did not change since its last
      firing re-produces its previous output, so skipping it (persistent
      target) or re-asserting its cached materialized output (a target
      that lost rows at the boundary) is a no-op rewrite of the naive
      iteration;
    * when inputs did change, the rule's compiled pipeline
      (:func:`repro.bloom.ast.compile_rule`) yields the exact net change
      of the rule's output, so merging it reproduces ``target |=
      eval(env)`` without rescanning;
    * waves are iteration-aligned: every rule fired in a wave sees the
      same start-of-wave contents (additions are staged and applied at
      the wave boundary), mirroring the naive per-iteration snapshot — so
      the order in which a wave fires its rules cannot be observed;
    * a standing sink (module docstring) is never read, so applying its
      writers' net changes in place ends every step on the contents the
      naive clear-and-re-derive computes.

    Change tracking is push, not poll: every published change lands in
    the inbox of each rule that scans the collection, and a rule whose
    inbox was empty joins its stratum's worklist; both the inboxes and the
    pipelines' indexes persist across ticks.  A stratum is evaluated by
    waves drawn from its worklist — never by a scan of its rules — and a
    wave of one rule publishes its rows straight away (there is no other
    rule in the wave to hide them from).  One aliasing rule keeps
    publishing copy-free: a set that has been published (handed to
    ``_record``) is never mutated afterwards, and a storage set — which
    *is* mutated in place — is never a published one.

    The bookkeeping is as sparse as the delta.  The boundary visits the
    collections with pending input and the transients that hold rows
    (``_filled``, kept exact: a transient enters it when it gains rows and
    leaves it at the boundary that clears it), and nothing else.
    """

    def __init__(
        self,
        module: BloomModule,
        *,
        on_channel_send: ChannelSend | None = None,
    ) -> None:
        self.module = module
        self.on_channel_send = on_channel_send
        self.storage: dict[str, set[tuple]] = {
            decl.name: set() for decl in module.declarations
        }
        # what ``insert`` accepts, with the width it checks
        self._widths = {
            decl.name: len(decl.schema)
            for decl in module.declarations
            if decl.kind is not CollectionKind.OUTPUT
        }
        self._output_names = tuple(decl.name for decl in module.outputs)
        self._pending_inserts: dict[str, set[tuple]] = {}
        self._pending_deletes: dict[str, set[tuple]] = {}
        rules = [
            _RuleState(rule, module.declaration(rule.lhs)) for rule in module.program
        ]
        self._strata = _stratify(module, rules)
        # every rule starts on a worklist: its first firing materializes it
        self._work = [list(stratum) for stratum in self._strata]
        for work in self._work:
            for state in work:
                state.work = work
        self._end_rules = tuple(
            state for state in rules if not state.rule.instantaneous
        )
        self._ended = list(self._end_rules)
        for state in self._end_rules:
            state.work = self._ended
        # change routing, fixed for the runtime's life: the rules that scan
        # each collection, and the instantaneous rules that derive it
        self._readers = {
            name: tuple(state for state in rules if name in state.scans)
            for name in self.storage
        }
        self._writers = {
            name: tuple(s for s in rules if s.lhs == name and s.rule.instantaneous)
            for name in self.storage
        }
        # standing sinks (module docstring): the boundary leaves them alone
        # and their writers apply deltas to them in place
        deferred_into = {state.lhs for state in self._end_rules}
        self._standing = frozenset(
            name for name in self._output_names
            if not self._readers[name] and name not in deferred_into
        )
        for state in rules:
            state.standing = state.rule.instantaneous and state.lhs in self._standing
        self._transient = frozenset(
            decl.name for decl in module.declarations if decl.transient
        ) - self._standing
        self._filled: set[str] = set()
        # transients no instantaneous rule derives: their storage set is
        # never mutated in place, only replaced at the boundary
        self._unwritten = frozenset(
            name for name in self._transient if not self._writers[name]
        )
        self._lingering: dict[str, set[tuple]] = {}
        # tick()'s result; ``_stale`` names the snapshots to retake (always
        # the outputs that are not standing: they are re-derived every tick)
        self._outputs = dict.fromkeys(self._output_names, NO_ROWS)
        self._volatile = frozenset(self._output_names) - self._standing
        self._stale = set(self._volatile)
        self.tick_count = 0
        self.ticks_skipped = 0

    # ------------------------------------------------------------------
    # external input
    # ------------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[tuple]) -> None:
        """Queue tuples for the next timestep (external stimulus).

        A row that is a tuple of the collection's width is queued as it is;
        anything else goes through the declaration's arity check, which
        copies it into a tuple or refuses it.
        """
        width = self._widths.get(collection)
        if width is None:
            self.module.declaration(collection)  # an unknown name raises here
            raise BloomError(f"cannot insert into output interface {collection!r}")
        pending = self._pending_inserts.get(collection)
        if pending is None:
            pending = self._pending_inserts[collection] = set()
        for row in rows:
            if type(row) is not tuple or len(row) != width:
                row = self.module.declaration(collection).check_arity(row)
            pending.add(row)

    def deliver(self, channel: str, row: tuple) -> None:
        """A network delivery into a channel (visible next timestep)."""
        decl = self.module.declaration(channel)
        if decl.kind is not CollectionKind.CHANNEL:
            raise BloomError(f"{channel!r} is not a channel")
        self._pending_inserts.setdefault(channel, set()).add(decl.check_arity(row))

    @property
    def has_pending_input(self) -> bool:
        """True when queued inserts/deletes will affect the next step."""
        # after a tick both are usually empty dicts: the first test answers
        return bool(self._pending_inserts or self._pending_deletes) and (
            any(self._pending_inserts.values()) or any(self._pending_deletes.values())
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def tick(self) -> dict[str, frozenset[tuple]]:
        """Run one timestep; returns the contents of output interfaces
        (the *same* frozenset object for an output that did not change).

        A timestep that would leave no trace is consumed at the door: its
        pending input is dropped, :attr:`ticks_skipped` counts it and
        :attr:`tick_count` does not.  That is the case when the boundary
        would change nothing — no pending deletes, every pending insert
        targets a table that already holds the row (e.g. a duplicated
        network delivery), every transient is empty — and the module has
        no deferred/deletion/async rules (those emit every tick regardless
        of change); the first tick always runs (it materializes
        ``Const``-only rules).  Skipping such a tick is exactly equivalent
        to running it.
        """
        inserts, deletes = self._pending_inserts, self._pending_deletes
        self._pending_inserts, self._pending_deletes = {}, {}
        if (
            not self._filled
            and self.tick_count
            and not self._end_rules
            and self._quiet(inserts, deletes)
        ):
            self.ticks_skipped += 1
            return self._outputs

        # 1. boundary: clear transients, apply deletes then inserts.
        self._apply_boundary(inserts, deletes)

        # 2. instantaneous strata to fixpoint, wave-aligned: a wave fires
        # the rules on the stratum's worklist when it starts; what they
        # publish at its end puts rules on this and higher worklists.
        for work in self._work:
            first_wave = True
            while work:
                if len(work) == 1:  # nothing else in the wave to stage for
                    rows = self._fire_in_wave(state := work.pop(), first_wave)
                    if rows:
                        self._add(state.lhs, rows)
                else:
                    self._wave(work, first_wave)
                first_wave = False

        # 3. end of step: deferred / deletion / async rules evaluate
        # against the fixpoint and emit their full materialized output
        # every tick (pending queues were drained; async re-sends).
        if self._end_rules:
            self._end_step()

        self.tick_count += 1
        if self._stale:
            fresh = {name: frozenset(self.storage[name]) for name in self._stale}
            self._outputs = self._outputs | fresh
            self._stale = set(self._volatile)
        return self._outputs

    def _end_step(self) -> None:
        """Fire the dirty end-of-step rules, then emit every one's output."""
        ended = self._ended
        while ended:
            state = ended.pop()
            base, state.inbox = state.inbox, None
            self._fire(state, base)
        for state in self._end_rules:
            rule = state.rule
            if rule.deferred:
                self._pending_inserts.setdefault(rule.lhs, set()).update(state.out)
            elif rule.deletion:
                self._pending_deletes.setdefault(rule.lhs, set()).update(state.out)
            elif rule.asynchronous:
                # unconditionally, matching the naive reference: the
                # transport/kind checks raise even for an empty output
                self._send_async(rule.lhs, state.out)

    def _wave(self, work: list[_RuleState], first_wave: bool) -> None:
        """Fire every rule on ``work`` against the same start-of-wave
        contents, then publish what they added, merged per target."""
        wave = work.copy()
        work.clear()
        staging: dict[str, set[tuple]] = {}
        for state in wave:
            rows = self._fire_in_wave(state, first_wave)
            if rows:
                lhs = state.lhs
                if lhs in staging:
                    staging[lhs] |= rows  # a fresh set: never published
                else:
                    staging[lhs] = rows
        for name, rows in staging.items():
            self._add(name, rows)

    def _fire_in_wave(self, state: _RuleState, first_wave: bool):
        """Fire one rule of a wave; returns the rows it adds to its target,
        not yet published (none for a standing sink, updated in place)."""
        base, state.inbox = state.inbox, None
        if base and (step := state.step) is not None:  # _fire's common case, inlined
            added, removed = step(base)
            state.out -= removed
            state.out |= added
        else:
            added, removed = self._fire(state, base)
        if state.standing:
            if added or removed:
                self._update_sink(state, added, removed, first_wave)
            return NO_ROWS
        if state.reassert:
            state.reassert = False
            added = state.out
        return added - self.storage[state.lhs] if added else NO_ROWS

    def _add(self, name: str, rows: set[tuple]) -> None:
        """Publish rows a wave added to an instantaneous rule's target."""
        self.storage[name] |= rows
        if name in self._transient:
            self._filled.add(name)
        self._record(name, rows, NO_ROWS)

    def _quiet(self, inserts, deletes) -> bool:
        """Would a boundary with this pending input change nothing?  Asked
        only while no transient outside the standing sinks holds rows."""
        if any(deletes.values()):
            return False
        storage, transient = self.storage, self._transient
        for name, rows in inserts.items():
            if rows and (name in transient or not rows <= storage[name]):
                return False
        return not any(storage[name] for name in self._standing)

    # -- change tracking ------------------------------------------------
    def _record(self, name: str, added, removed) -> None:
        """Publish one change to the rules that scan the collection.

        A clean rule takes the change as its whole inbox and joins its
        worklist; a second change for the same collection before the rule
        fires folds into the net change.
        """
        for state in self._readers[name]:
            if state.inbox is None:
                state.inbox = {name: (added, removed)}
                state.work.append(state)
            elif name not in state.inbox:
                state.inbox[name] = (added, removed)
            else:
                inbox = state.inbox
                was_added, was_removed = inbox[name]
                net_added = (was_added - removed) | (added - was_removed)
                net_removed = (was_removed - added) | (removed - was_added)
                if net_added or net_removed:
                    inbox[name] = (net_added, net_removed)
                else:
                    del inbox[name]

    def _fire(self, state: _RuleState, base: dict[str, Delta]) -> Delta:
        """Bring the rule's materialized output up to date from ``base``,
        the inbox the caller took off it.

        Returns the net change of the output.  The first firing compiles
        the body and materializes it (every scanned collection's live
        contents count as added, so each operator builds its index) even
        when nothing arrived; later firings consume only the inbox, and one
        with an empty inbox changes nothing (a re-assert still follows it).
        """
        step = state.step
        if step is None:
            step = state.step = compile_rule(state.rule.rhs)
            storage = self.storage
            base = {name: (storage[name], NO_ROWS) for name in state.scans}
        elif not base:
            return NO_CHANGE
        delta = added, removed = step(base)
        state.out -= removed
        state.out |= added
        return delta

    def _update_sink(self, state: _RuleState, added, removed, first_wave) -> None:
        """Apply one writer's output delta to its standing sink; a row
        retracted after the first wave lingers (module docstring)."""
        name = state.lhs
        if removed and first_wave:
            self.storage[name] -= self._underived(name, removed)
        elif removed:
            self._lingering.setdefault(name, set()).update(removed)
        self.storage[name] |= added
        self._stale.add(name)

    def _underived(self, name: str, rows) -> set[tuple]:
        """The ``rows`` no writer of ``name`` currently derives."""
        outs = [state.out for state in self._writers[name]]
        return {row for row in rows if not any(row in out for out in outs)}

    def _apply_boundary(self, inserts, deletes) -> None:
        """Start of step: clear transients, apply deletes then inserts.

        Visits only the transients that hold rows and the collections with
        pending input (``inserts``/``deletes``, already detached from the
        queues), and publishes each net ``(added, removed)`` change as it
        is made, from sets nothing mutates afterwards (see the aliasing
        rule in the class docstring).  Deletes apply before inserts — see
        the module docstring on simultaneous ``<+``/``<-``; a delete aimed
        at a transient is moot, since the boundary empties it anyway.
        """
        storage = self.storage
        if self._lingering:
            for name, rows in self._lingering.items():  # retire last step's
                storage[name] -= self._underived(name, rows)
                self._stale.add(name)
            self._lingering.clear()
        filled, self._filled = self._filled, set()
        for name in filled:  # retire the old set: its rows are the removal
            current = storage[name]
            rows = inserts.pop(name, None)
            if rows:
                storage[name] = rows
                self._filled.add(name)
                if len(rows) == 1 == len(current) and rows != current and name in self._unwritten:
                    # a one-row swap: both sets are beyond mutation now
                    self._record(name, rows, current)
                else:
                    self._publish(name, rows - current, current - rows)
            else:
                storage[name] = set()
                self._publish(name, NO_ROWS, current)
        for name, rows in inserts.items():
            if not rows:
                continue
            if name in self._transient:  # an empty one: it was not filled
                storage[name] = set(rows)
                self._filled.add(name)
                self._publish(name, rows, NO_ROWS)
                continue
            current = storage[name]
            dropped = deletes.pop(name, None)
            added = rows - current
            removed = dropped & current if dropped else NO_ROWS
            if removed:
                removed = removed - rows
            current -= removed
            current |= added
            self._publish(name, added, removed)
        for name, rows in deletes.items():
            if rows and name not in self._transient:
                removed = rows & storage[name]
                storage[name] -= removed
                self._publish(name, NO_ROWS, removed)

    def _publish(self, name: str, added, removed) -> None:
        """Publish one boundary change.  The rules whose target lost rows
        re-assert their cached output: naive evaluation re-derives it on
        the stratum's first iteration."""
        if not added and not removed:
            return
        self._record(name, added, removed)
        if removed:
            for state in self._writers[name]:
                if state.out:
                    state.reassert = True
                    if state.inbox is None:
                        state.inbox = {}
                        state.work.append(state)

    def _send_async(self, channel: str, rows: Iterable[tuple]) -> None:
        decl = self.module.declaration(channel)
        if decl.kind is not CollectionKind.CHANNEL:
            raise BloomError(
                f"async rules must target channels; {channel!r} is a "
                f"{decl.kind.value}"
            )
        if self.on_channel_send is None:
            raise BloomError(
                f"module {self.module.name} sends on channel {channel!r} but "
                f"no transport is attached"
            )
        address_index = decl.columns.index(decl.address_column)
        # a send order independent of how the set was built: iteration
        # order depends on construction history, which the naive
        # reference (tests/reference) does not share
        for row in sorted(rows, key=repr):
            self.on_channel_send(channel, row[address_index], row)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def read(self, collection: str) -> frozenset[tuple]:
        """Contents of a collection as of the end of the last timestep."""
        self.module.declaration(collection)
        return frozenset(self.storage[collection])

    def count(self, collection: str) -> int:
        """Cardinality of a collection without snapshotting it.

        ``len(read(...))`` copies the whole collection into a frozenset;
        per-tick probes over large tables (the fig12 processed-records
        probe) need the O(1) answer.
        """
        rows = self.storage.get(collection)
        if rows is None:
            self.module.declaration(collection)  # an unknown name raises here
        return len(rows)

    def __repr__(self) -> str:
        return f"BloomRuntime({self.module.name!r}, ticks={self.tick_count})"


def _negated_scans(node) -> frozenset[str]:
    """Collections a rule body aggregates or negates.

    Scans under an (un-hinted) aggregation, and scans on the right side of
    an antijoin, must be complete before the operator runs: they induce
    stratum boundaries.
    """
    negated: set[str] = set()

    def walk(current, under_negation: bool) -> None:
        if isinstance(current, GroupBy) and not current.monotone_hint:
            walk(current.child, True)
            return
        if isinstance(current, AntiJoin):
            walk(current.left, under_negation)
            walk(current.right, True)
            return
        if isinstance(current, Scan):
            if under_negation:
                negated.add(current.collection)
            return
        for child in current.children:
            walk(child, under_negation)

    walk(node, False)
    return frozenset(negated)


def _stratify(
    module: BloomModule, rules: Iterable[_RuleState]
) -> list[list[_RuleState]]:
    """Group instantaneous rules into evaluation strata.

    ``stratum(lhs) >= stratum(src)`` for positive dependencies and
    ``stratum(lhs) > stratum(src)`` for aggregated/negated ones.  The
    computation iterates to a fixpoint; exceeding the collection count
    means recursion through negation — unstratifiable.
    """
    instantaneous = [state for state in rules if state.rule.instantaneous]
    stratum: dict[str, int] = {d.name: 0 for d in module.declarations}
    limit = len(stratum) + 1
    changed = True
    while changed:
        changed = False
        for state in instantaneous:
            for scanned in state.scans:
                required = stratum[scanned] + (1 if scanned in state.negated else 0)
                if stratum[state.lhs] < required:
                    stratum[state.lhs] = required
                    if stratum[state.lhs] > limit:
                        raise BloomError(
                            f"module {module.name} is unstratifiable: "
                            f"recursion through aggregation/negation at "
                            f"{state.lhs!r}"
                        )
                    changed = True
    buckets: dict[int, list[_RuleState]] = {}
    for state in instantaneous:
        buckets.setdefault(stratum[state.lhs], []).append(state)
    return [buckets[level] for level in sorted(buckets)]
