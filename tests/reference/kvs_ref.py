"""The key/value dataflow of Section III-B, built by hand.

The registered ``kvs`` app derives its dataflow from its declaration;
this is the two-tier graph written out directly, the reference the app
is compared against (``tests/api/test_equivalence.py``) and the input of
the analysis tests in ``tests/apps/test_kvs.py``.
"""

from __future__ import annotations

from repro.apps.kvs import LwwKvs
from repro.bloom.analysis import analyze_module, attach_component
from repro.core.annotations import CW
from repro.core.graph import Dataflow


def kvs_dataflow(*, seal_puts_on_key: bool = False) -> Dataflow:
    """The two-tier dataflow: LWW store feeding a replicated cache tier.

    Annotations for the store come from the white-box analysis; the cache
    is annotated by hand (a single confluent-write path).  With
    ``seal_puts_on_key`` the write stream carries ``Seal[key]``, which is
    compatible with the store's gate and discharges the coordination.
    """
    flow = Dataflow("kvs-cache")
    kvs = LwwKvs()
    analysis = analyze_module(kvs)
    attach_component(flow, kvs, name="Store", rep=True, analysis=analysis)
    cache = flow.add_component("Cache")
    cache.add_path("response", "cached", CW())
    flow.add_stream(
        "puts", dst=("Store", "put"), seal=["key"] if seal_puts_on_key else None
    )
    flow.add_stream("gets", dst=("Store", "get"))
    flow.add_stream("responses", src=("Store", "getr"), dst=("Cache", "response"))
    flow.add_stream("cached", src=("Cache", "cached"))
    return flow
