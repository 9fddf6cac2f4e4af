"""Structural comparison of dataflows, the oracle of the spec-equivalence
tests (``tests/api/test_equivalence.py``).

Two notions of sameness matter in practice:

* **equality** — :func:`signature`: identical components, identical
  named streams.  This is the round-trip identity
  ``signature(loads_spec(dump_spec(df))) == signature(df)`` preserves.
  ``Dataflow`` itself compares by identity: it is mutable.
* **isomorphism** — :func:`isomorphism_mismatch` is ``None``: identical
  components and identical *wiring*, ignoring what the streams are
  called.  Specs written by hand name streams after the data
  (``tweets``); dataflows extracted from a Storm topology name them
  after the edge (``tweets->Splitter``).  The analysis outcome depends
  only on the wiring, which is what this predicate compares.
"""

from __future__ import annotations

from collections import Counter

from repro.core.graph import Dataflow

__all__ = ["isomorphism_mismatch", "signature"]


def signature(dataflow: Dataflow) -> tuple:
    """A canonical, hashable rendering of the graph's structure.

    Two dataflows with equal signatures declare the same components
    (name, replication, annotated paths in order) and the same named
    streams (endpoints, seal keys, replication, label overrides).
    """
    components = tuple(
        (
            component.name,
            component.rep,
            tuple(
                (path.from_iface, path.to_iface, str(path.annotation))
                for path in component.paths
            ),
        )
        for component in dataflow.components
    )
    streams = tuple(
        (stream.name, *_stream_shape(stream)) for stream in dataflow.streams
    )
    return (dataflow.name, components, streams)


def _stream_shape(stream) -> tuple:
    """What a stream is, apart from its name."""
    return (
        stream.src,
        stream.dst,
        tuple(sorted(stream.seal_key)) if stream.seal_key else None,
        stream.rep,
        str(stream.label) if stream.label is not None else None,
    )


def _component_table(dataflow: Dataflow) -> dict[str, tuple]:
    return {
        component.name: (
            component.rep,
            frozenset(
                (path.from_iface, path.to_iface, str(path.annotation))
                for path in component.paths
            ),
        )
        for component in dataflow.components
    }


def _edge_multiset(dataflow: Dataflow) -> Counter:
    return Counter(_stream_shape(stream) for stream in dataflow.streams)


def isomorphism_mismatch(a: Dataflow, b: Dataflow) -> str | None:
    """``None`` when isomorphic, else a description of the first difference."""
    table_a, table_b = _component_table(a), _component_table(b)
    if table_a != table_b:
        only_a = {k: v for k, v in table_a.items() if table_b.get(k) != v}
        only_b = {k: v for k, v in table_b.items() if table_a.get(k) != v}
        return f"components differ: {only_a!r} vs {only_b!r}"
    edges_a, edges_b = _edge_multiset(a), _edge_multiset(b)
    if edges_a != edges_b:
        only_a = edges_a - edges_b
        only_b = edges_b - edges_a
        return f"wiring differs: {sorted(only_a)!r} vs {sorted(only_b)!r}"
    return None
