"""Figure 14 companion: the with/without-coordination fault audit.

The paper's Section VII methodology is to run each system twice — with
the synthesized coordination and without — and show that the predicted
anomaly appears exactly when coordination is removed.  This benchmark
executes that methodology as a campaign over every audit app
(wordcount, ad network, KVS), every strategy, every fault schedule in
the app's envelope, and several network seeds of one fixed workload,
then asserts the two halves of the Blazes claim:

* **soundness** — every cell observes an anomaly severity at or below
  the label :func:`repro.core.analysis.analyze` predicted
  (``observed <= predicted`` in the Figure 8 lattice), and every
  *coordinated* cell stays within ``Async``;
* **completeness-in-practice** — the labels are not vacuous: with the
  coordination removed, the unsealed word count empirically exhibits
  ``Run`` (cross-run commit divergence) and the replicated KVS exhibits
  permanent ``Diverge`` (paper Section III-B).

Run it as a script (``--jobs N`` and ``--no-cache`` are shared: ``benchmarks/README.md``)::

    PYTHONPATH=src python -m benchmarks.bench_fig14_fault_audit [--smoke]

which writes ``BENCH_fig14-audit[-smoke].json`` (to ``$REPRO_BENCH_DIR`` or the
cwd), or with pytest for the assertions::

    PYTHONPATH=src python -m pytest benchmarks/bench_fig14_fault_audit.py -s
"""

from __future__ import annotations

import functools

from benchmarks._adreport import figure_main, report_name
from repro.bench import BenchReport, JsonReporter
from repro.chaos import (
    audit_campaign,
    campaign_is_sound,
    demonstrated_anomalies,
    render_audit,
)


@functools.cache
def run_audit(tier: str = "default", *, jobs: int = 1, cache=None) -> BenchReport:
    """The full campaign; writes ``BENCH_fig14-audit[-smoke].json``.

    Smoke runs use CI-sized workloads and two seeds, and write a
    ``-smoke`` file so they never clobber a full-scale record.
    ``jobs > 1`` fans the cells out over the warm worker pool; ``cache``
    serves already-computed cells.  Memoized so the assertions below
    share one campaign per session.
    """
    return audit_campaign(
        smoke=tier == "smoke",
        name=report_name("fig14-audit", tier),
        reporter=JsonReporter(),
        jobs=jobs,
        cache=cache,
    )


def test_fig14_audit_is_sound():
    """Soundness: no run ever exceeds its predicted label."""
    report = run_audit()
    print()
    print("Figure 14 audit — observed vs predicted labels under faults")
    print(render_audit(report))
    assert campaign_is_sound(report), render_audit(report)
    # the campaign really is the promised sweep: >= 3 apps x 2 strategies
    # x >= 3 schedules
    apps = {r.params["app"] for r in report}
    assert len(apps) >= 3
    for app in apps:
        rows = report.select(app=app)
        assert len({r.params["strategy"] for r in rows}) >= 2
        assert len({r.params["schedule"] for r in rows}) >= 3
    # every coordinated cell stays within Async (severity 2): the
    # synthesized coordination makes the anomalies impossible
    for result in report:
        if result["coordinated"]:
            assert result["observed_severity"] <= 2, result.name


def test_fig14_uncoordinated_anomalies_appear():
    """Completeness-in-practice: remove coordination, see the anomaly."""
    report = run_audit()
    anomalies = demonstrated_anomalies(report)
    observed = set(anomalies.values())
    # the unsealed word count breaks replay determinism...
    assert any(
        name.startswith("wordcount/eager") and label == "Run"
        for name, label in anomalies.items()
    ), anomalies
    # ...and the replicated KVS diverges permanently (Section III-B)
    assert any(
        name.startswith("kvs/uncoordinated") and label == "Diverge"
        for name, label in anomalies.items()
    ), anomalies
    assert {"Run", "Diverge"} <= observed


def test_fig14_coordcost_orders_strategies():
    """Coordination-cost accounting: coordinated cells pay, others don't.

    Every cell embeds an aggregated ``coordcost`` block; the adnet seal
    and ordered strategies must show a strictly positive coordination
    share while the uncoordinated deployment shows (essentially) none —
    the measured half of the paper's consistency/latency trade-off.
    """
    report = run_audit()
    shares: dict[str, list[float]] = {}
    for result in report:
        block = result["coordcost"]
        assert block is not None, result.name
        assert block["messages_sent"] > 0, result.name
        strategy_key = f"{result.params['app']}/{result.params['strategy']}"
        shares.setdefault(strategy_key, []).append(block["coordination_share"])
    for cell in ("adnet/seal", "adnet/ordered", "kvs/ordered"):
        assert cell in shares and min(shares[cell]) > 0.0, shares.get(cell)
    for share in shares["adnet/uncoordinated"]:
        assert share < 0.01, shares["adnet/uncoordinated"]
    # ordering pays strictly more than sealing on the same app/workload
    assert min(shares["adnet/ordered"]) > max(shares["adnet/seal"])


def main(argv: list[str] | None = None) -> None:
    report = figure_main(
        argv,
        run_audit,
        lambda report, tier: print(render_audit(report, evidence=tier != "smoke")),
        description="Figure 14 companion: the with/without-coordination fault audit",
        tiers=("smoke",),
    )
    if not campaign_is_sound(report):
        raise SystemExit(4)


if __name__ == "__main__":
    main()
