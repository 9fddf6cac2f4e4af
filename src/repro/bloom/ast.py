"""Relational-algebra AST for Bloom rule bodies.

Bloom rules are declarative: the right-hand side of every rule is a tree of
relational operators over collections.  Representing rule bodies as an
explicit AST is what enables the paper's *white box* analysis
(Section VII): monotonicity is a syntactic property of the tree (no
antijoin, no aggregation), and attribute *lineage* — which output columns
are identity copies of which input columns — feeds the injective
functional-dependency chase that decides seal compatibility.

Every node knows its output ``schema`` (a tuple of column names) and
reports ``lineage()``: for each output column, the set of
``(collection, column)`` pairs it copies untransformed (empty for computed
columns).

Evaluation is *compiled*, not interpreted: :func:`compile_rule` turns a
rule body into a pipeline of closures, one per operator, for the
incremental engine (:mod:`repro.bloom.runtime`).  ``step(base)`` consumes
the net ``(added, removed)`` change of each scanned collection and returns
the exact net change of the body's output.  Column positions and key
getters are resolved once, at compile time; per-key hash indexes (joins,
antijoins), support counts (projections, unions) and per-group
materializations (aggregations) live in the closures' cells, so the AST
itself stays immutable — one module can be evaluated by several runtimes
at once, each holding its own compiled pipelines.  Predicates (``Select``)
and computed columns (``Calc``) must be pure functions of their row for
the delta path to be exact; the naive reference
(``tests/reference/naive_engine.py``, which also holds the from-scratch
``naive_eval`` of every operator) already assumes this: it re-invokes them
every fixpoint iteration.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Mapping
from collections.abc import Set as AbstractSet
from operator import itemgetter

from repro.errors import BloomError

__all__ = [
    "Node",
    "Scan",
    "Project",
    "Calc",
    "Select",
    "Join",
    "AntiJoin",
    "GroupBy",
    "Union",
    "Const",
    "AGGREGATES",
    "Delta",
    "Step",
    "NO_ROWS",
    "NO_CHANGE",
    "compile_rule",
]

LineageMap = dict[str, frozenset[tuple[str, str]]]

# The net change of a tuple set: (added, removed), disjoint by invariant.
# Neither half is ever mutated once handed on: operators pass their
# children's sets through and the runtime publishes them to other rules.
Delta = tuple[AbstractSet[tuple], AbstractSet[tuple]]

# One compiled operator: base-collection deltas in, own output delta out.
Step = Callable[[Mapping[str, Delta]], Delta]

NO_ROWS: frozenset = frozenset()
NO_CHANGE: Delta = (NO_ROWS, NO_ROWS)


def compile_rule(root: "Node") -> Step:
    """Compile a rule body into its incremental pipeline ``step(base)``.

    ``base`` maps each scanned collection to its net ``(added, removed)``
    change since the previous call, and ``step`` returns the exact net
    change of the body's output: ``added`` is disjoint from the output as
    of the previous call and ``removed`` is a subset of it — the invariant
    every operator maintains and relies on from its children.  The first
    call materializes: the caller passes every scanned collection's whole
    contents as ``added``, and the whole output comes back as added, which
    makes a rule's first firing and its refirings the same code path.

    All mutable state lives in the returned closures, so one AST serves any
    number of pipelines.  A node object that occurs more than once in the
    body is compiled once and answers once per round (it must not consume
    its input delta twice); a round is identified by the ``base`` object,
    so every call must pass a new mapping.  A pipeline never mutates a set
    it was handed and copies the rows it keeps, so the caller may pass
    (and go on mutating) its live sets.
    """
    uses: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        uses[id(node)] = uses.get(id(node), 0) + 1
        if uses[id(node)] == 1:
            stack.extend(node.children)
    built: dict[int, Step] = {}

    def build(node: Node) -> Step:
        step = built.get(id(node))
        if step is None:
            step = node._compile(build)
            if uses[id(node)] > 1:
                step = _once_per_round(step)
            built[id(node)] = step
        return step

    return build(root)


def _once_per_round(step: Step) -> Step:
    """Memoize a shared node's delta for the round named by ``base``."""
    seen = result = None

    def shared(base):
        nonlocal seen, result
        if seen is not base:
            result = step(base)
            seen = base
        return result

    return shared


def _recount(support: dict, arrived, departed, added: set, removed: set) -> None:
    """Move rows in and out of a support-counted set (projection, union).

    ``support`` maps a row to the number of sources holding it: a row
    enters ``added`` when its count leaves zero and ``removed`` when it
    returns there.
    """
    for row in arrived:
        count = support.get(row, 0)
        support[row] = count + 1
        if not count:
            added.add(row)
    for row in departed:
        count = support[row] - 1
        if count:
            support[row] = count
        else:
            del support[row]
            removed.add(row)


def _net(added: set, removed: set) -> Delta:
    """Cancel rows whose support flipped both ways within one round.

    Only a round that moved rows both ways can cancel any; one whose
    support counts all returned where they started is ``NO_CHANGE``.
    """
    if added and removed:
        both = added & removed
        if both:
            added -= both
            removed -= both
    elif not added and not removed:
        return NO_CHANGE
    return added, removed


def _count_step(child: Step, key_of: Callable, width: int) -> Step:
    """A group-by whose every aggregate is ``count``, in streaming form.

    A group keeps one integer, the number of its child rows, not the rows
    themselves: the child's table already holds them.  The integer stays
    exact because of the invariant :func:`compile_rule` promises of every
    step — ``added`` is disjoint from the child's previous output and
    ``removed`` is a subset of it — so each added row is one more row of
    its group and each removed row one fewer, duplicates and retractions
    alike (a count is a lattice value, not a set).  A group's output row is
    ``key + (count,) * width``, a function of the count.  A round notes
    each touched group's count before its first change; the group's old
    and new output rows are then built once each.
    """
    counts: dict[tuple, int] = {}  # key -> its number of child rows

    def count_by(base):
        child_added, child_removed = child(base)
        if not child_removed and len(child_added) == 1:
            # one arrival, so one group's count moves up by one
            (row,) = child_added
            key = key_of(row)
            was = counts.get(key, 0)
            counts[key] = was + 1
            if not was:
                return {key + (1,) * width}, NO_ROWS
            return {key + (was + 1,) * width}, {key + (was,) * width}
        if not child_added and not child_removed:
            return NO_CHANGE
        before: dict[tuple, int] = {}  # key -> its count before this round
        for row in child_added:
            key = key_of(row)
            was = counts.get(key, 0)
            if key not in before:
                before[key] = was
            counts[key] = was + 1
        for row in child_removed:
            key = key_of(row)
            was = counts[key]  # a removed row was counted in its group
            if key not in before:
                before[key] = was
            counts[key] = was - 1
        added, removed = set(), set()
        for key, was in before.items():
            now = counts[key]
            if now == was:
                continue
            if was:
                removed.add(key + (was,) * width)
            if now:
                added.add(key + (now,) * width)
            else:
                del counts[key]
        return added, removed

    return count_by


def _columns(indexes: list[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple`` of the given column positions."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    if not indexes:
        return lambda row: ()
    (only,) = indexes
    return lambda row: (row[only],)


def _index_add(index: dict, rows, key: Callable) -> None:
    """Insert rows into a per-key hash index (key -> set of rows)."""
    for row in rows:
        k = key(row)
        bucket = index.get(k)
        if bucket is None:
            bucket = index[k] = set()
        bucket.add(row)


def _index_discard(index: dict, rows, key: Callable) -> None:
    """Remove rows from a per-key hash index, dropping empty buckets."""
    for row in rows:
        k = key(row)
        bucket = index.get(k)
        if bucket is None:
            continue
        bucket.discard(row)
        if not bucket:
            del index[k]


class Node:
    """Base class for relational operators."""

    schema: tuple[str, ...] = ()

    def _compile(self, build: Callable[["Node"], Step]) -> Step:  # pragma: no cover
        """This operator's closure; ``build(child)`` compiles an input."""
        raise NotImplementedError

    def lineage(self) -> LineageMap:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def monotonic(self) -> bool:
        """Syntactic monotonicity: no antijoin / aggregation anywhere.

        A ``GroupBy`` carrying a *monotone hint* (the lattice-style
        assertion that its aggregate is only observed through a monotone
        threshold, as in the paper's THRESH query) does not count as
        nonmonotonic.
        """
        if not all(child.monotonic for child in self.children):
            return False
        if isinstance(self, AntiJoin):
            return False
        if isinstance(self, GroupBy):
            return self.monotone_hint
        return True

    @property
    def children(self) -> tuple["Node", ...]:
        return ()

    def scans(self) -> frozenset[str]:
        """Names of every collection the tree reads."""
        names: set[str] = set()
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                names.add(node.collection)
            stack.extend(node.children)
        return frozenset(names)

    def nonmonotonic_ops(self) -> tuple["Node", ...]:
        """Every antijoin / aggregation node in the tree, outermost first."""
        found: list[Node] = []
        stack: list[Node] = [self]
        while stack:
            node = stack.pop(0)
            if isinstance(node, AntiJoin) or (
                isinstance(node, GroupBy) and not node.monotone_hint
            ):
                found.append(node)
            stack.extend(node.children)
        return tuple(found)

    # small conveniences for fluent composition -------------------------
    def project(self, *cols) -> "Project":
        return Project(self, list(cols))

    def where(self, predicate, refs: Iterable[str] = ()) -> "Select":
        return Select(self, predicate, tuple(refs))

    def _index(self, col: str) -> int:
        try:
            return self.schema.index(col)
        except ValueError:
            raise BloomError(
                f"column {col!r} not in schema {self.schema} of {type(self).__name__}"
            ) from None


@dataclasses.dataclass
class Scan(Node):
    """Read every tuple of a named collection."""

    collection: str
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        self.schema = tuple(self.schema)

    def _compile(self, build) -> Step:
        collection = self.collection

        def scan(base):
            return base.get(collection, NO_CHANGE)

        return scan

    def lineage(self) -> LineageMap:
        return {
            col: frozenset({(self.collection, col)}) for col in self.schema
        }


class Project(Node):
    """Projection with optional renaming.

    ``cols`` entries are either a source column name (identity) or a
    ``(source, alias)`` pair.  Identity projection preserves lineage —
    the "trivial and ubiquitous" injective function of Section V-A1.
    """

    def __init__(self, child: Node, cols: Iterable[str | tuple[str, str]]):
        self.child = child
        self._pairs: list[tuple[str, str]] = []
        for col in cols:
            if isinstance(col, tuple):
                src, alias = col
            else:
                src, alias = col, col
            child._index(src)  # validates
            self._pairs.append((src, alias))
        if not self._pairs:
            raise BloomError("projection requires at least one column")
        aliases = [alias for _, alias in self._pairs]
        if len(set(aliases)) != len(aliases):
            raise BloomError(f"duplicate output columns in projection: {aliases}")
        self.schema = tuple(aliases)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def _compile(self, build) -> Step:
        child = build(self.child)
        pick = _columns([self.child._index(src) for src, _ in self._pairs])
        support: dict[tuple, int] = {}  # out row -> #source rows

        def project(base):
            child_added, child_removed = child(base)
            if not child_added and not child_removed:
                return NO_CHANGE
            if len(child_added) == 1 == len(child_removed):
                # one row replaced by one (a group's count moving on): if
                # both project onto the same row its support is unchanged
                (new,), (old,) = child_added, child_removed
                if pick(new) == pick(old):
                    return NO_CHANGE
            added, removed = set(), set()
            _recount(
                support, map(pick, child_added), map(pick, child_removed),
                added, removed,
            )
            return _net(added, removed)

        return project

    def lineage(self) -> LineageMap:
        child_lineage = self.child.lineage()
        return {
            alias: child_lineage.get(src, frozenset())
            for src, alias in self._pairs
        }


class Calc(Node):
    """Append a computed column (non-identity lineage).

    ``fn`` receives the values of ``deps`` (in order) and returns the new
    column's value.
    """

    def __init__(self, child: Node, out: str, fn: Callable, deps: Iterable[str]):
        self.child = child
        self.out = out
        self.fn = fn
        self.deps = tuple(deps)
        for dep in self.deps:
            child._index(dep)
        if out in child.schema:
            raise BloomError(f"computed column {out!r} shadows an existing column")
        self.schema = child.schema + (out,)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def _compile(self, build) -> Step:
        child = build(self.child)
        fn = self.fn
        deps = _columns([self.child._index(d) for d in self.deps])

        def calc(base):
            child_added, child_removed = child(base)
            if not child_added and not child_removed:
                return NO_CHANGE
            # row -> output is injective (columns are appended), so deltas
            # map one-to-one; ``fn`` must be pure for the removal
            # recomputation
            return (
                {row + (fn(*deps(row)),) for row in child_added},
                {row + (fn(*deps(row)),) for row in child_removed},
            )

        return calc

    def lineage(self) -> LineageMap:
        lineage = dict(self.child.lineage())
        lineage[self.out] = frozenset()  # computed: identity lost
        return lineage


class Select(Node):
    """Filter rows by a predicate over named columns.

    The predicate receives a mapping from column name to value.  ``refs``
    is a contract: when non-empty it names the columns the predicate reads
    — their positions are resolved once, at compile time, and the mapping
    holds *only* those, so reading any other column raises
    :class:`BloomError`. ``refs=()`` hands the predicate the full row.
    Selection is monotonic regardless.
    """

    def __init__(self, child: Node, predicate: Callable, refs: tuple[str, ...] = ()):
        self.child = child
        self.predicate = predicate
        self.refs = refs
        for ref in refs:
            child._index(ref)
        self.schema = child.schema

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def _compile(self, build) -> Step:
        child = build(self.child)
        predicate = self.predicate
        schema, refs = self.child.schema, self.refs
        cols = [(col, self.child._index(col)) for col in refs or schema]
        if len(cols) == 1:  # a dict display: a third of the comprehension's cost
            ((name, at),) = cols

            def passes(row):
                return predicate({name: row[at]})

            def passing(rows):
                return {r for r in rows if predicate({name: r[at]})}
        else:

            def passes(row):
                return predicate({c: row[i] for c, i in cols})

            def passing(rows):
                return {r for r in rows if predicate({c: r[i] for c, i in cols})}

        def keep(rows):
            """The rows that pass; an empty half is ``NO_ROWS`` and a lone
            row that passes is handed on in its own (unmutated) set."""
            if len(rows) == 1:
                (row,) = rows
                return rows if passes(row) else NO_ROWS
            return passing(rows) if rows else NO_ROWS

        def select(base):
            child_added, child_removed = child(base)
            if not child_added and not child_removed:
                return NO_CHANGE
            try:
                return keep(child_added), keep(child_removed)
            except KeyError as exc:
                col = exc.args[0] if exc.args else None
                if not refs or col in refs or col not in schema:
                    raise  # the predicate's own KeyError, not the contract's
                message = f"select predicate reads column {col!r}: not in refs {refs}"
                raise BloomError(f"{message} (operator schema {schema})") from None

        return select

    def lineage(self) -> LineageMap:
        return self.child.lineage()


class Join(Node):
    """Equijoin on pairs of columns (monotonic).

    The output schema is the left schema followed by the right columns
    that are not join keys; non-key column names must not collide.
    """

    def __init__(
        self, left: Node, right: Node, on: Iterable[tuple[str, str]]
    ):
        self.left = left
        self.right = right
        self.on = tuple(on)
        if not self.on:
            raise BloomError("joins require at least one column pair")
        for lcol, rcol in self.on:
            left._index(lcol)
            right._index(rcol)
        right_keys = {rcol for _, rcol in self.on}
        self._right_keep = tuple(c for c in right.schema if c not in right_keys)
        collisions = set(self._right_keep) & set(left.schema)
        if collisions:
            raise BloomError(
                f"join output columns collide: {sorted(collisions)}; "
                f"project/rename before joining"
            )
        self.schema = left.schema + self._right_keep

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    def _compile(self, build) -> Step:
        left, right = build(self.left), build(self.right)
        lkey = itemgetter(*(self.left._index(l) for l, _ in self.on))
        rkey = itemgetter(*(self.right._index(r) for _, r in self.on))
        keep = _columns([self.right._index(c) for c in self._right_keep])
        left_index: dict = {}   # key -> set of left rows
        right_index: dict = {}  # key -> set of right rows

        def join(base):
            left_added, left_removed = left(base)
            right_added, right_removed = right(base)
            if not (left_added or left_removed or right_added or right_removed):
                return NO_CHANGE
            added, removed = set(), set()
            # removals: dL- against the pre-round right, then dR- against
            # the already-shrunk left, so pairs with both sides gone count
            # once
            if left_removed:
                for lrow in left_removed:
                    for rrow in right_index.get(lkey(lrow), ()):
                        removed.add(lrow + keep(rrow))
                _index_discard(left_index, left_removed, lkey)
            if right_removed:
                for rrow in right_removed:
                    kept = keep(rrow)
                    for lrow in left_index.get(rkey(rrow), ()):
                        removed.add(lrow + kept)
                _index_discard(right_index, right_removed, rkey)
            # additions: dL+ against the post-round right, dR+ against the
            # post-round left (the dL+ x dR+ overlap dedupes in the set)
            if right_added:
                _index_add(right_index, right_added, rkey)
            if left_added:
                for lrow in left_added:
                    for rrow in right_index.get(lkey(lrow), ()):
                        added.add(lrow + keep(rrow))
                _index_add(left_index, left_added, lkey)
            for rrow in right_added:
                kept = keep(rrow)
                for lrow in left_index.get(rkey(rrow), ()):
                    added.add(lrow + kept)
            return added, removed

        return join

    def lineage(self) -> LineageMap:
        lineage = dict(self.left.lineage())
        right_lineage = self.right.lineage()
        for col in self._right_keep:
            lineage[col] = right_lineage.get(col, frozenset())
        return lineage


class AntiJoin(Node):
    """Rows of ``left`` with no match in ``right`` (nonmonotonic).

    This is Bloom's ``not in``; the theta columns identify the sealable
    partitions of the operation (paper Section VII-B2).
    """

    def __init__(self, left: Node, right: Node, on: Iterable[tuple[str, str]]):
        self.left = left
        self.right = right
        self.on = tuple(on)
        if not self.on:
            raise BloomError("antijoins require at least one column pair")
        for lcol, rcol in self.on:
            left._index(lcol)
            right._index(rcol)
        self.schema = left.schema

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)

    @property
    def theta_columns(self) -> tuple[str, ...]:
        """Left-side columns of the antijoin condition (the gate)."""
        return tuple(l for l, _ in self.on)

    def _compile(self, build) -> Step:
        left, right = build(self.left), build(self.right)
        lkey = itemgetter(*(self.left._index(l) for l, _ in self.on))
        rkey = itemgetter(*(self.right._index(r) for _, r in self.on))
        left_index: dict = {}  # key -> set of left rows
        blocked: dict = {}     # key -> set of right rows matching it

        def antijoin(base):
            left_added, left_removed = left(base)
            right_added, right_removed = right(base)
            if not (left_added or left_removed or right_added or right_removed):
                return NO_CHANGE
            added, removed = set(), set()
            # 1. left removals: in the output iff unblocked before this round
            if left_removed:
                for lrow in left_removed:
                    if lkey(lrow) not in blocked:
                        removed.add(lrow)
                _index_discard(left_index, left_removed, lkey)
            # 2. right net update; keys that flip blocked status move every
            # surviving left row of that key in or out of the output
            if right_added or right_removed:
                affected = {
                    key: key in blocked
                    for rows in (right_removed, right_added)
                    for key in map(rkey, rows)
                }
                _index_discard(blocked, right_removed, rkey)
                _index_add(blocked, right_added, rkey)
                for key, was_blocked in affected.items():
                    now_blocked = key in blocked
                    if was_blocked and not now_blocked:
                        added |= left_index.get(key, NO_ROWS)
                    elif now_blocked and not was_blocked:
                        removed |= left_index.get(key, NO_ROWS)
            # 3. left additions: in the output iff unblocked after this round
            if left_added:
                _index_add(left_index, left_added, lkey)
                for lrow in left_added:
                    if lkey(lrow) not in blocked:
                        added.add(lrow)
            return added, removed

        return antijoin

    def lineage(self) -> LineageMap:
        return self.left.lineage()


AGGREGATES: dict[str, Callable[[list], object]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "accum": frozenset,
}


class GroupBy(Node):
    """Grouped aggregation (nonmonotonic).

    ``aggs`` is a list of ``(output_column, aggregate_name, input_column)``
    — ``input_column`` is ignored by ``count``.  The grouping keys are the
    sealable partitions of the operation (paper Section VII-B2).

    ``monotone`` asserts that downstream consumers observe the aggregate
    only through monotone thresholds (e.g. ``count(*) > 1000``), in which
    case the statement is confluent despite the aggregation — the CALM
    extension of Conway et al.'s lattice work that the paper applies to
    THRESH.
    """

    def __init__(
        self,
        child: Node,
        keys: Iterable[str],
        aggs: Iterable[tuple[str, str, str | None]],
        *,
        monotone: bool = False,
    ):
        self.child = child
        self.keys = tuple(keys)
        self.aggs = tuple(aggs)
        self.monotone_hint = monotone
        if not self.aggs:
            raise BloomError("group_by requires at least one aggregate")
        for key in self.keys:
            child._index(key)
        for out, agg_name, col in self.aggs:
            if agg_name not in AGGREGATES:
                raise BloomError(
                    f"unknown aggregate {agg_name!r}; have {sorted(AGGREGATES)}"
                )
            if agg_name != "count" and col is None:
                raise BloomError(f"aggregate {agg_name!r} requires an input column")
            if col is not None:
                child._index(col)
        self.schema = self.keys + tuple(out for out, _, _ in self.aggs)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)

    def _compile(self, build) -> Step:
        child = build(self.child)
        key_of = _columns([self.child._index(k) for k in self.keys])
        if all(agg_name == "count" for _out, agg_name, _col in self.aggs):
            return _count_step(child, key_of, len(self.aggs))
        groups: dict[tuple, set] = {}     # key -> set of child rows
        # Other aggregates (notably float ``sum``) re-aggregate the groups a
        # round touched: an incremental accumulator would drift from the
        # naive engine's recompute.
        agg_fns = [
            (AGGREGATES[agg_name], None if col is None else self.child._index(col))
            for _out, agg_name, col in self.aggs
        ]
        out_rows: dict[tuple, tuple] = {}  # key -> current output row

        def group_by(base):
            child_added, child_removed = child(base)
            if not child_added and not child_removed:
                return NO_CHANGE
            # only rows of *touched* groups are re-aggregated; untouched
            # groups keep their materialized output row
            touched = set()
            for row in child_added:
                key = key_of(row)
                bucket = groups.get(key)
                if bucket is None:
                    bucket = groups[key] = set()
                bucket.add(row)
                touched.add(key)
            for row in child_removed:
                key = key_of(row)
                bucket = groups.get(key)
                if bucket is not None:
                    bucket.discard(row)
                touched.add(key)
            added, removed = set(), set()
            for key in touched:
                rows = groups.get(key)
                old = out_rows.get(key)
                if rows:
                    new = key + tuple(
                        fn(list(rows) if col is None else [row[col] for row in rows])
                        for fn, col in agg_fns
                    )
                else:
                    new = None
                    groups.pop(key, None)
                if new != old:
                    if old is not None:
                        removed.add(old)
                        del out_rows[key]
                    if new is not None:
                        added.add(new)
                        out_rows[key] = new
            return added, removed

        return group_by

    def lineage(self) -> LineageMap:
        child_lineage = self.child.lineage()
        lineage = {key: child_lineage.get(key, frozenset()) for key in self.keys}
        for out, _agg, _col in self.aggs:
            lineage[out] = frozenset()  # aggregates are computed values
        return lineage


class Union(Node):
    """Set union of identically-shaped inputs (monotonic)."""

    def __init__(self, *parts: Node):
        if len(parts) < 2:
            raise BloomError("union requires at least two inputs")
        arity = len(parts[0].schema)
        for part in parts[1:]:
            if len(part.schema) != arity:
                raise BloomError(
                    f"union arity mismatch: {parts[0].schema} vs {part.schema}"
                )
        self.parts = parts
        self.schema = parts[0].schema

    @property
    def children(self) -> tuple[Node, ...]:
        return tuple(self.parts)

    def _compile(self, build) -> Step:
        parts = [build(part) for part in self.parts]
        support: dict[tuple, int] = {}  # row -> #branches holding it

        def union(base):
            added, removed = set(), set()
            for part in parts:
                _recount(support, *part(base), added, removed)
            return _net(added, removed)

        return union

    def lineage(self) -> LineageMap:
        # A column keeps identity lineage only if every branch agrees.
        maps = [part.lineage() for part in self.parts]
        lineage: LineageMap = {}
        for position, col in enumerate(self.schema):
            sources: set[tuple[str, str]] | None = None
            for part, part_map in zip(self.parts, maps):
                branch_col = part.schema[position]
                branch = part_map.get(branch_col, frozenset())
                sources = branch if sources is None else (sources & branch)
            lineage[col] = frozenset(sources or ())
        return lineage


class Const(Node):
    """A literal collection of tuples (monotonic)."""

    def __init__(self, rows: Iterable[tuple], schema: Iterable[str]):
        self.rows = frozenset(tuple(r) for r in rows)
        self.schema = tuple(schema)
        for row in self.rows:
            if len(row) != len(self.schema):
                raise BloomError(
                    f"const row {row} does not match schema {self.schema}"
                )

    def _compile(self, build) -> Step:
        fresh = (self.rows, NO_ROWS)

        def const(base):
            nonlocal fresh
            delta, fresh = fresh, NO_CHANGE
            return delta

        return const

    def lineage(self) -> LineageMap:
        return {col: frozenset() for col in self.schema}
