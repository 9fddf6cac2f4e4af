"""The audit campaign: acceptance assertions on the smoke sweep."""

from __future__ import annotations

import functools

import pytest

from repro.chaos import (
    audit_campaign,
    campaign_is_sound,
    campaign_tightness,
    demonstrated_anomalies,
    harness_for,
    matrix_apps,
    matrix_is_expected,
    matrix_summary,
    render_audit,
    render_matrix,
)
from repro.chaos.oracle import ObservedLabel
from repro.errors import BlazesError, SimulationError

SEEDS = (7, 11)


@functools.lru_cache(maxsize=None)
def smoke_report():
    return audit_campaign(smoke=True, seeds=SEEDS)


def test_campaign_covers_the_required_grid():
    """>= 3 apps x >= 2 strategies x >= 3 fault schedules, several seeds."""
    report = smoke_report()
    apps = {result.params["app"] for result in report}
    assert {"wordcount", "adnet", "kvs"} <= apps
    # the Figure 6 query apps ride in the default sweep too
    assert set(matrix_apps()) <= apps
    for app in apps:
        rows = report.select(app=app)
        strategies = {r.params["strategy"] for r in rows}
        schedules = {r.params["schedule"] for r in rows}
        assert len(strategies) >= 2, app
        assert len(schedules) >= 3, app
    assert all(result["runs"] == len(SEEDS) for result in report)


def test_ordered_strategy_swept_for_sequencer_apps():
    report = smoke_report()
    for app in ("adnet", "kvs", *matrix_apps()):
        strategies = {r.params["strategy"] for r in report.select(app=app)}
        assert "ordered" in strategies, app


def test_campaign_is_sound():
    """Every cell observes within its predicted Figure 8 label."""
    report = smoke_report()
    assert campaign_is_sound(report), render_audit(report, evidence=True)


def test_coordinated_cells_stay_within_async():
    """The synthesized coordination makes the anomalies impossible."""
    report = smoke_report()
    for result in report:
        if result["coordinated"]:
            assert result["observed_severity"] <= 2, (
                result.name,
                result["observed"],
                result["evidence"],
            )


def test_uncoordinated_anomalies_are_demonstrated():
    """Remove the coordination and the predicted anomalies actually occur."""
    anomalies = demonstrated_anomalies(smoke_report())
    assert any(
        name.startswith("wordcount/eager") and label == "Run"
        for name, label in anomalies.items()
    ), anomalies
    assert any(
        name.startswith("kvs/uncoordinated") and label == "Diverge"
        for name, label in anomalies.items()
    ), anomalies


def test_predictions_match_the_paper_figure8_story():
    report = smoke_report()
    predicted = {
        (r.params["app"], r.params["strategy"]): r["predicted"] for r in report
    }
    assert predicted[("wordcount", "sealed")] == "Async"
    assert predicted[("wordcount", "eager")] == "Run"
    assert predicted[("adnet", "uncoordinated")] == "Diverge"
    assert predicted[("adnet", "seal")] == "Async"
    assert predicted[("kvs", "uncoordinated")] == "Diverge"
    assert predicted[("kvs", "sealed")] == "Async"


def test_evidence_accompanies_every_anomalous_cell():
    for result in smoke_report():
        if result["observed_severity"] > ObservedLabel.EXACT.severity:
            assert result["evidence"], result.name


class TestTightness:
    """Per-cell tightness: observed == predicted, not merely <=."""

    def test_every_cell_carries_the_metric(self):
        for result in smoke_report():
            assert isinstance(result["tight"], bool), result.name
            assert result["tight"] == (
                result["observed_severity"] == result["predicted_severity"]
            ), result.name

    def test_campaign_tightness_counts_cells(self):
        report = smoke_report()
        tight, total = campaign_tightness(report)
        assert total == len(report)
        assert tight == sum(1 for r in report if r["tight"])
        # the labels are attained somewhere: the eager word count lives
        # exactly at Run, the uncoordinated KVS exactly at Diverge, and
        # the ordered KVS exactly at Async
        assert any(
            r["tight"] for r in report.select(app="wordcount", strategy="eager")
        )
        assert any(
            r["tight"] for r in report.select(app="kvs", strategy="uncoordinated")
        )
        assert any(
            r["tight"] for r in report.select(app="kvs", strategy="ordered")
        )

    def test_render_audit_reports_tightness(self):
        text = render_audit(smoke_report())
        tight, total = campaign_tightness(smoke_report())
        assert f"tightness: {tight}/{total} cells" in text

    def test_audit_to_dict_serializes_tightness(self):
        from repro.chaos import audit_to_dict

        payload = audit_to_dict(smoke_report())
        tight, total = campaign_tightness(smoke_report())
        assert payload["summary"]["tight_cells"] == tight
        assert payload["summary"]["cells"] == total
        assert payload["summary"]["sound"] is True
        assert all("tight" in cell for cell in payload["cells"])
        import json

        json.dumps(payload)  # JSON-able end to end


class TestQueryMatrix:
    """The Figure 6 matrix folded out of the audit report."""

    def test_matrix_summary_covers_the_grid(self):
        summary = matrix_summary(smoke_report())
        queries = {q for q, _ in summary}
        strategies = {s for _, s in summary}
        assert queries == {"THRESH", "POOR", "WINDOW", "CAMPAIGN"}
        assert strategies == {"uncoordinated", "sealed", "ordered"}
        for cell in summary.values():
            assert cell["cells"] >= 4  # schedules per pair

    def test_matrix_reproduces_figure6(self):
        report = smoke_report()
        assert matrix_is_expected(report), render_matrix(report)
        summary = matrix_summary(report)
        assert summary[("THRESH", "uncoordinated")]["consistent"]
        for query in ("POOR", "WINDOW", "CAMPAIGN"):
            assert not summary[(query, "uncoordinated")]["consistent"], query
            assert summary[(query, "sealed")]["consistent"], query
            assert summary[(query, "ordered")]["consistent"], query

    def test_render_matrix_grid(self):
        text = render_matrix(smoke_report())
        assert "THRESH" in text and "ordered" in text
        assert "matrix matches Figure 6" in text

    def test_matrix_summary_ignores_non_matrix_apps(self):
        report = audit_campaign(("kvs",), smoke=True, seeds=(7,))
        assert matrix_summary(report) == {}
        assert not matrix_is_expected(report)
        assert "no query-matrix cells" in render_matrix(report)


def test_schedule_subset_restricts_the_sweep():
    report = audit_campaign(
        ("kvs",), smoke=True, seeds=(7,), schedules=("baseline",)
    )
    assert {r.params["schedule"] for r in report} == {"baseline"}
    assert len(report) == 3  # one per strategy


def test_schedule_name_no_swept_app_has_is_an_error():
    """A typo must not sweep zero cells and read as "sound"."""
    with pytest.raises(BlazesError, match="reorder-burts.*baseline.*reorder-burst"):
        audit_campaign(
            ("kvs",), smoke=True, seeds=(7,), schedules=("baseline", "reorder-burts")
        )


def test_schedule_name_some_swept_app_has_is_skipped_for_the_rest():
    """kvs has no dup-burst schedule; wordcount does."""
    report = audit_campaign(
        ("kvs", "wordcount"), smoke=True, seeds=(7,), schedules=("dup-burst",)
    )
    assert {r.params["app"] for r in report} == {"wordcount"}


def test_audit_of_no_cells_is_an_error():
    with pytest.raises(BlazesError, match="no cells"):
        audit_campaign((), smoke=True, seeds=(7,))


def test_render_audit_summarizes():
    text = render_audit(smoke_report())
    assert "observed" in text and "predicted" in text
    assert "sound: all" in text
    assert "anomalies demonstrated without coordination:" in text


def test_default_schedules_exposed_per_app():
    names = [s.name for s in harness_for("wordcount", smoke=True).schedules]
    assert "baseline" in names and "crash-restart" in names
    with pytest.raises(SimulationError):
        harness_for("nope")


def test_unknown_schedule_name_is_an_error():
    harness = harness_for("kvs", smoke=True)
    with pytest.raises(SimulationError):
        harness.schedule_named("meteor-strike")


def test_a_schedule_aimed_at_an_undeclared_role_is_an_error():
    """The armer names the role it cannot resolve and the app's roles."""
    from repro.chaos.schedule import crash_restart

    harness = harness_for("kvs", smoke=True)
    with pytest.raises(SimulationError) as raised:
        harness.observe("uncoordinated", crash_restart("reporter"), seed=7)
    message = str(raised.value)
    assert "no role 'reporter'" in message
    assert "['cache', 'client', 'worker']" in message


def test_cells_carry_the_registering_module_for_pool_workers():
    """A fresh pool worker only auto-imports the builtin catalog, so each
    cell records the module whose import registers its app."""
    report = audit_campaign(("kvs",), smoke=True, seeds=(7,), schedules=("baseline",))
    assert all(r.params["app_module"] == "repro.apps.kvs" for r in report)


class TestEnvelopeStatus:
    """The three-way cell taxonomy: sound / unsound / out-of-envelope."""

    def test_default_sweep_is_entirely_in_envelope(self):
        for result in smoke_report():
            assert result["in_envelope"], result.name
            assert result["envelope_violations"] == [], result.name
            assert result["status"] in ("sound", "unsound"), result.name
            assert result["status"] == (
                "sound" if result["sound"] else "unsound"
            ), result.name

    def test_out_of_envelope_schedule_withholds_the_verdict(self):
        from repro.chaos.campaign import _cell_metrics
        from repro.chaos.schedule import loss_burst, schedule_to_dict

        # adnet's order-only envelope excludes loss: the cell runs, but
        # its anomaly (if any) is out-of-envelope, never unsound
        metrics = _cell_metrics(
            app="adnet",
            strategy="uncoordinated",
            schedule="loss-burst",
            smoke=True,
            seeds=[7],
            schedule_spec=schedule_to_dict(loss_burst()),
        )
        assert metrics["status"] == "out-of-envelope"
        assert not metrics["in_envelope"]
        assert any("loss" in line for line in metrics["envelope_violations"])

    def test_out_of_envelope_cells_never_count_as_unsound(self):
        from repro.bench import BenchReport, ScenarioResult
        from repro.chaos import out_of_envelope_cells
        from repro.chaos import audit_to_dict

        def cell(name, *, sound, violations):
            return ScenarioResult(
                name,
                {"app": "x", "strategy": "s", "schedule": name},
                {
                    "predicted": "Async",
                    "predicted_severity": 2,
                    "observed": "Inst" if not sound else "Async",
                    "observed_severity": 4 if not sound else 2,
                    "sound": sound,
                    "status": "out-of-envelope" if violations else (
                        "sound" if sound else "unsound"
                    ),
                    "in_envelope": not violations,
                    "envelope_violations": list(violations),
                    "tight": False,
                    "consistent": sound,
                    "coordinated": False,
                    "evidence": [],
                },
                0.0,
            )

        report = BenchReport(
            "t",
            [
                cell("a", sound=True, violations=()),
                cell("b", sound=False, violations=("loss outside",)),
            ],
        )
        assert campaign_is_sound(report)  # b is excluded, not unsound
        assert report.row("b")["status"] == "out-of-envelope"
        assert out_of_envelope_cells(report) == {"b": ["loss outside"]}
        payload = audit_to_dict(report)
        assert payload["summary"]["sound"] is True
        assert payload["summary"]["unsound_cells"] == 0
        assert payload["summary"]["out_of_envelope"] == 1
        text = render_audit(report)
        assert "out-of-envelope cells (1, no verdict): b" in text
        assert "all 1 in-envelope cells" in text


class TestDuplicateScheduleNames:
    """Two distinct schedules sharing a name must not collide."""

    def test_same_named_distinct_schedules_get_digest_suffixed_cells(self):
        import dataclasses

        from repro.api import get_app
        from repro.chaos.schedule import loss_burst

        app = get_app("wordcount")
        original = app.audit_spec
        # two *different* loss bursts, both named "loss-burst"
        doubled = dataclasses.replace(
            original,
            schedules=(loss_burst(drop_prob=0.2), loss_burst(drop_prob=0.6)),
        )
        app.audit_spec = doubled
        try:
            report = audit_campaign(
                ("wordcount",), smoke=True, seeds=(7,)
            )
        finally:
            app.audit_spec = original
        names = [r.name for r in report]
        assert len(names) == len(set(names)) == 4  # 2 strategies x 2 cells
        assert all("#" in name for name in names)
        # the two cells of one strategy really ran different schedules
        eager = report.select(strategy="eager")
        probs = {
            r.params["schedule_spec"]["faults"][0]["drop_prob"] for r in eager
        }
        assert probs == {0.2, 0.6}

    def test_unique_names_keep_the_plain_cell_format(self):
        report = audit_campaign(
            ("kvs",), smoke=True, seeds=(7,), schedules=("baseline",)
        )
        assert all("#" not in r.name for r in report)
        assert all("schedule_spec" not in r.params for r in report)
