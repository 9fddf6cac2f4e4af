"""The system catalog: attribute provenance across a module's rules.

Paper Section VII-B2: "We can track the lineage of an individual attribute
... by querying Bloom's system catalog, which details how each rule
application transforms (or preserves) attribute values."  The catalog
records, for every ``(collection, column)``, the set of
``(source collection, source column)`` pairs it copies by identity, and
chases them transitively back to the module's input interfaces.  Identity
chains are injective, which is the sound-but-incomplete detection of
injective functional dependencies the paper uses.
"""

from __future__ import annotations

from repro.bloom.collections import CollectionKind
from repro.bloom.module import BloomModule
from repro.core.fd import FDSet

__all__ = ["Catalog"]

Attr = tuple[str, str]  # (collection, column)


class Catalog:
    """Identity-lineage provenance for one module."""

    def __init__(self, module: BloomModule) -> None:
        self.module = module
        self._writers: dict[Attr, set[Attr]] = {}
        for rule in module.program:
            if rule.deletion:
                continue  # deletions do not establish provenance
            lhs_decl = module.declaration(rule.lhs)
            rhs_lineage = rule.rhs.lineage()
            for position, lhs_col in enumerate(lhs_decl.columns):
                rhs_col = rule.rhs.schema[position]
                sources = rhs_lineage.get(rhs_col, frozenset())
                self._writers.setdefault((rule.lhs, lhs_col), set()).update(sources)

    def trace_to_inputs(self, collection: str, column: str) -> frozenset[Attr]:
        """Chase identity lineage back to input-interface attributes.

        Returns every ``(input_interface, column)`` whose value flows
        unchanged into ``collection.column``; empty when the attribute is
        computed (or seeded by constants).
        """
        target_kinds = {CollectionKind.INPUT}
        found: set[Attr] = set()
        visited: set[Attr] = set()
        frontier: list[Attr] = [(collection, column)]
        while frontier:
            attr = frontier.pop()
            if attr in visited:
                continue
            visited.add(attr)
            coll, _col = attr
            decl = self.module.declaration(coll)
            if decl.kind in target_kinds:
                found.add(attr)
                continue
            frontier.extend(self._writers.get(attr, ()))
        return frozenset(found)

    def identity_fds(self) -> FDSet:
        """Injective FDs implied by identity chains to the interfaces.

        For every output-interface attribute that is an identity copy of
        an input attribute with a *different* name, declare the rename as
        an injective dependency in both directions (``S.a`` is injectively
        determined by ``R.a`` through any chain of identity projections).
        """
        fds = FDSet()
        for decl in self.module.outputs:
            for column in decl.columns:
                for _src_coll, src_col in self.trace_to_inputs(decl.name, column):
                    if src_col != column:
                        fds.add_identity(src_col, column)
        return fds
