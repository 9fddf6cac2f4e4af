"""The BlazesApp façade: declaration, derivation, execution, audit glue."""

from __future__ import annotations

import pytest

from repro.api import BlazesApp, RunOutcome, annotate, get_app
from repro.core import SealStrategy, analyze, loads_spec
from repro.core.labels import LabelKind
from repro.errors import ApiError

# the declarations a Bloom app's audit profile needs beside its strategies
# and schedules: a role, what its processes commit and emit, and the truth
_BLOOM_PROFILE = dict(
    horizon=1.0,
    run_params=lambda smoke: {},
    roles={"worker": "node"},
    committed=("worker", {"log": None}),
    emitted=("worker", "out"),
    truth=lambda outcome, params: None,
)


class TestDeclaration:
    def test_unknown_strategy_is_a_clean_error(self):
        app = get_app("wordcount")
        with pytest.raises(ApiError, match="no strategy"):
            app.analyze("nope")

    def test_default_strategy_is_the_declared_default(self):
        assert get_app("wordcount").default_strategy == "sealed"
        assert get_app("adnet").default_strategy == "seal"
        assert get_app("kvs").default_strategy == "sealed"

    def test_duplicate_declarations_are_rejected(self):
        @annotate(frm="i", to="o", label="CR")
        class Confluent:
            pass

        app = BlazesApp("tmp", backend="bloom")
        app.component("C", Confluent)
        with pytest.raises(ApiError, match="duplicate component"):
            app.component("C", Confluent)
        app.stream("s", to="C.i")
        with pytest.raises(ApiError, match="duplicate stream"):
            app.stream("s", to="C.i")
        app.strategy("x")
        with pytest.raises(ApiError, match="duplicate strategy"):
            app.strategy("x")

    def test_backend_is_validated(self):
        with pytest.raises(ApiError, match="unknown backend"):
            BlazesApp("tmp", backend="flink")

    def test_audit_profile_validates_strategy_names(self):
        app = BlazesApp("tmp", backend="bloom")
        app.strategy("only")
        with pytest.raises(ApiError, match="no strategy"):
            app.audit_profile(
                strategies=("only", "missing"), schedules=(), **_BLOOM_PROFILE
            )

    def test_audit_profile_schedules_are_a_sequence_kept_as_a_tuple(self):
        app = BlazesApp("tmp", backend="bloom")
        app.strategy("only")
        for schedules in (lambda smoke: (), iter(())):
            with pytest.raises(ApiError, match="tuple or list"):
                app.audit_profile(
                    strategies=("only",), schedules=schedules, **_BLOOM_PROFILE
                )
        app.audit_profile(strategies=("only",), schedules=[], **_BLOOM_PROFILE)
        assert app.audit_spec.schedules == ()

    @pytest.mark.parametrize(
        "backend, declared",
        [
            ("bloom", {"committed": None}),
            ("bloom", {"emitted": None}),
            ("bloom", {"committed": ("reader", {"log": None})}),  # no such role
            ("bloom", {"emitted": ("reader", "out")}),
            ("storm", {"emitted": None}),  # a Storm replica is its bolt's store
            ("storm", {"committed": None}),
        ],
        ids=[
            "bloom-without-committed",
            "bloom-without-emitted",
            "bloom-committed-by-an-undeclared-role",
            "bloom-emitted-by-an-undeclared-role",
            "storm-with-committed",
            "storm-with-emitted",
        ],
    )
    def test_a_bloom_audit_profile_declares_what_replicas_commit_and_emit(
        self, backend, declared
    ):
        app = BlazesApp("tmp", backend=backend)
        app.strategy("only")
        with pytest.raises(ApiError, match="commit and emit"):
            app.audit_profile(
                strategies=("only",), schedules=(), **{**_BLOOM_PROFILE, **declared}
            )
        assert app.audit_spec is None


class TestDerivation:
    def test_strategy_seals_shape_the_dataflow(self):
        app = get_app("kvs")
        assert app.dataflow("sealed").stream("puts").seal_key == frozenset({"key"})
        assert app.dataflow("uncoordinated").stream("puts").seal_key is None

    def test_predicted_labels_match_the_paper(self):
        expectations = {
            ("wordcount", "sealed"): "Async",
            ("wordcount", "eager"): "Run",
            ("adnet", "uncoordinated"): "Diverge",
            ("adnet", "seal"): "Async",
            ("kvs", "uncoordinated"): "Diverge",
            ("kvs", "sealed"): "Async",
        }
        for (name, strategy), label in expectations.items():
            assert str(get_app(name).predicted_label(strategy)) == label

    def test_plan_synthesizes_seal_strategy_for_the_sealed_kvs(self):
        plan = get_app("kvs").plan("sealed")
        strategy = plan.strategy_for("Store")
        assert isinstance(strategy, SealStrategy)
        assert ("puts", frozenset({"key"})) in strategy.partitions
        assert not plan.uses_global_order

    def test_spec_is_analyzable_yaml(self):
        dataflow, fds = loads_spec(get_app("wordcount").spec("sealed"))
        result = analyze(dataflow, fds)
        assert result.is_consistent
        assert result.label_of("tweets->Splitter").kind is LabelKind.SEAL

    def test_declarative_component_without_annotations_is_rejected(self):
        class Bare:
            pass

        app = BlazesApp("tmp", backend="bloom")
        app.component("C", Bare)
        app.stream("out", frm="C.o")
        app.strategy("only")
        with pytest.raises(ApiError, match="no\\s+annotations"):
            app.dataflow()


class TestExecution:
    def test_run_returns_a_uniform_outcome(self):
        outcome = get_app("wordcount").run(smoke=True, seed=3)
        assert isinstance(outcome, RunOutcome)
        assert outcome.strategy == "sealed"
        assert outcome.backend == "storm"
        assert outcome.metrics["batches_acked"] == 3
        payload = outcome.to_dict()
        assert payload["app"] == "wordcount"
        assert "metrics" in payload and "result" not in payload

    def test_caller_kwargs_override_strategy_params(self):
        outcome = get_app("wordcount").run(
            "sealed", smoke=True, total_batches=2
        )
        assert outcome.metrics["batches_acked"] == 2

    def test_runnerless_app_raises(self):
        app = BlazesApp("tmp", backend="bloom")
        app.strategy("only")
        with pytest.raises(ApiError, match="no runner"):
            app.run()

    def test_harness_requires_an_audit_profile(self):
        from repro.chaos.harnesses import AppHarness
        from repro.errors import BlazesError

        app = BlazesApp("tmp", backend="bloom")
        with pytest.raises(BlazesError, match="no audit profile"):
            AppHarness(app)

    def test_audit_sweeps_only_the_apps_named(self):
        from repro.chaos.campaign import audit_campaign

        report = audit_campaign(
            ("wordcount",), smoke=True, seeds=(7,), schedules=("baseline", "dup-burst")
        )
        assert [result.name for result in report] == [
            "wordcount/sealed/baseline",
            "wordcount/sealed/dup-burst",
            "wordcount/eager/baseline",
            "wordcount/eager/dup-burst",
        ]
        assert all(result["sound"] for result in report)
        assert {result.params["seeds"][0] for result in report} == {7}

    def test_audit_requires_an_audit_profile(self):
        from repro.api import register
        from repro.api.registry import _REGISTRY
        from repro.chaos.campaign import audit_campaign
        from repro.errors import BlazesError

        register(BlazesApp("tmp-unaudited", backend="bloom"))
        try:
            with pytest.raises(BlazesError, match="no audit profile"):
                audit_campaign(("tmp-unaudited",), smoke=True)
        finally:
            _REGISTRY.pop("tmp-unaudited", None)
