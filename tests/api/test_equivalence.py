"""Differential tests: the API-derived apps equal their legacy wiring.

Two halves:

* **spec equivalence** — the decorator/white-box-derived dataflow of each
  registered app is graph-isomorphic to the legacy hand-built spec (for
  the ad network, whose white-box annotations intentionally refine the
  paper's manual ones, the wiring and the end-to-end analysis verdicts
  must coincide instead);
* **run equivalence** — ``BlazesApp.run`` reproduces the committed state
  of the legacy runners for fixed seeds, strategy by strategy.
"""

from __future__ import annotations

import pytest

from repro.api import get_app
from repro.core import analyze, loads_spec
from tests.reference.compare import isomorphism_mismatch

LEGACY_WORDCOUNT_YAML = """
name: wordcount
components:
  Splitter:
    annotations:
      - { from: tweets, to: words, label: CR }
  Count:
    annotations:
      - { from: words, to: counts, label: OW, subscript: [word, batch] }
  Commit:
    annotations:
      - { from: counts, to: db, label: CW }
streams:
  - { name: tweets, to: Splitter.tweets%SEAL% }
  - { name: words, from: Splitter.words, to: Count.words }
  - { name: counts, from: Count.counts, to: Commit.counts }
  - { name: db, from: Commit.db }
"""


LEGACY_EAGER_YAML = """
name: wordcount-eager
components:
  Splitter:
    annotations:
      - { from: tweets, to: words, label: CR }
  Count:
    annotations:
      - { from: words, to: counts, label: OW, subscript: [word] }
  Commit:
    annotations:
      - { from: counts, to: db, label: OW, subscript: [word] }
streams:
  - { name: tweets, to: Splitter.tweets }
  - { name: words, from: Splitter.words, to: Count.words }
  - { name: counts, from: Count.counts, to: Commit.counts }
  - { name: db, from: Commit.db }
"""


class TestSpecEquivalence:
    @pytest.mark.parametrize("strategy", ("sealed", "transactional"))
    def test_wordcount_matches_the_legacy_yaml_spec(self, strategy):
        legacy, _ = loads_spec(
            LEGACY_WORDCOUNT_YAML.replace("%SEAL%", ", seal: [batch]")
        )
        derived = get_app("wordcount").dataflow(strategy)
        assert isomorphism_mismatch(derived, legacy) is None

    def test_eager_wordcount_matches_the_legacy_yaml_spec(self):
        legacy, _ = loads_spec(LEGACY_EAGER_YAML)
        derived = get_app("wordcount").dataflow("eager")
        assert isomorphism_mismatch(derived, legacy) is None

    @pytest.mark.parametrize("sealed", (False, True))
    def test_kvs_matches_the_legacy_handbuilt_dataflow(self, sealed):
        from tests.reference.kvs_ref import kvs_dataflow

        legacy = kvs_dataflow(seal_puts_on_key=sealed)
        derived = get_app("kvs").dataflow("sealed" if sealed else "uncoordinated")
        assert isomorphism_mismatch(derived, legacy) is None

    @pytest.mark.parametrize(
        "strategy,seal", (("uncoordinated", None), ("seal", ["campaign"]))
    )
    def test_adnet_matches_the_legacy_wiring_and_verdict(self, strategy, seal):
        from repro.apps.ad_network import ad_network_dataflow

        legacy = ad_network_dataflow("CAMPAIGN", seal=seal)
        app = get_app("adnet")
        derived = app.dataflow(strategy)

        # identical wiring: same streams, endpoints, seals, components
        def wiring(flow):
            return {
                (
                    s.name,
                    s.src,
                    s.dst,
                    tuple(sorted(s.seal_key)) if s.seal_key else None,
                )
                for s in flow.streams
            }

        assert wiring(derived) == wiring(legacy)
        assert {c.name: c.rep for c in derived.components} == {
            c.name: c.rep for c in legacy.components
        }

        # the white-box Report annotations refine the paper's manual CW/OR
        # split, so the graphs are not annotation-identical — but the
        # end-to-end verdicts must coincide (the Section VII claim)
        legacy_result = analyze(legacy)
        derived_result = app.analyze(strategy)
        assert {n: str(l) for n, l in derived_result.sink_labels.items()} == {
            n: str(l) for n, l in legacy_result.sink_labels.items()
        }
        assert derived_result.severity == legacy_result.severity


class TestRunEquivalence:
    def test_wordcount_run_reproduces_the_legacy_committed_store(self):
        from repro.apps.wordcount import run_wordcount

        for strategy, kwargs in (
            ("sealed", {}),
            ("transactional", {"transactional": True}),
            ("eager", {"eager": True}),
        ):
            outcome = get_app("wordcount").run(
                strategy, seed=7, workers=2, total_batches=3, batch_size=10
            )
            _, legacy_cluster = run_wordcount(
                seed=7, workers=2, total_batches=3, batch_size=10, **kwargs
            )
            assert (
                outcome.cluster.committed_store() == legacy_cluster.committed_store()
            ), strategy

    def test_kvs_run_reproduces_the_legacy_replica_state(self):
        from repro.apps.kvs import run_kvs

        for strategy in ("sealed", "uncoordinated"):
            outcome = get_app("kvs").run(strategy, seed=7, smoke=True)
            legacy = run_kvs(
                strategy, seed=7, workload=outcome.result.workload
            )
            for node in legacy.cache_nodes:
                assert outcome.result.cache_entries(node) == legacy.cache_entries(
                    node
                ), (strategy, node)
            for node in legacy.store_nodes:
                assert outcome.result.store_writes(node) == legacy.store_writes(
                    node
                ), (strategy, node)

    def test_adnet_run_reproduces_the_legacy_replica_state(self):
        from repro.apps.ad_network import run_ad_network

        for strategy in ("uncoordinated", "independent-seal"):
            outcome = get_app("adnet").run(strategy, seed=7, smoke=True)
            legacy = run_ad_network(
                strategy, seed=7, workload=outcome.result.workload
            )
            for node in legacy.report_nodes:
                for table in ("clicks", "requests"):  # what a replica commits
                    assert outcome.cluster.node(node).read(
                        table
                    ) == legacy.cluster.node(node).read(table), (strategy, node, table)
