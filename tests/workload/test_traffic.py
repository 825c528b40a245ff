"""The traffic plane end to end: cases, campaigns, and the SLO report.

The byte-identity contract under test: one traffic case is the same row
at any ``--jobs`` value, and the folded report is canonical JSON.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.checks.campaign import write_report
from repro.checks.invariants import InvariantMonitor
from repro.farm.builder import Farm
from repro.workload import traffic
from repro.workload.traffic import (
    TRAFFIC_START,
    build_traffic_farm,
    build_traffic_report,
    render_traffic_report,
    run_traffic_campaign,
    run_traffic_case,
    traffic_horizon,
)

#: small-but-live case: the autoscaler must actually move under it
CASE = dict(duration=30.0, rate=120.0, n_users=100_000)
QUICK = dict(duration=15.0, rate=80.0, n_users=50_000)


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ----------------------------------------------------------------------
# one case
# ----------------------------------------------------------------------
def test_case_shape_and_slo_accounting():
    row = run_traffic_case(case=0, seed=7, **QUICK)
    assert row["requests"]["issued"] > 0
    per_domain = row["domains"]
    assert set(per_domain) == {"alpha", "bravo"}
    issued = sum(d["issued"] for d in per_domain.values())
    assert issued == row["requests"]["issued"]
    # fe_arrivals >= issued: retries re-arrive at front ends
    total_arrivals = sum(d["fe_arrivals"] for d in per_domain.values())
    assert total_arrivals >= row["requests"]["completed"]
    assert 0.0 <= row["availability"] <= 1.0
    assert row["latency"]["p50"] <= row["latency"]["p90"] <= row["latency"]["p99"]
    assert row["checks"]["membership_agreement"] > 0
    assert (row["n_islands"], row["cross_messages"]) == (1, 0)  # one simulator
    assert "shards" not in row


@pytest.mark.parametrize("shards", [2, "auto", 0])
def test_a_case_runs_on_one_simulator(shards):
    with pytest.raises(ValueError, match="shards must be 1"):
        run_traffic_case(case=0, seed=7, shards=shards, **QUICK)


def test_classic_case_leaves_no_farm_behind(monkeypatch):
    """The farm is one web of reference cycles; a case must free it before
    returning, not leave it for the next allocation to trip over — even
    while a caller holds the run's result, as ``benchmarks/e2e`` does by
    wrapping ``run_sharded``."""
    captured = []
    run_sharded = traffic.run_sharded

    def capturing(*args, **kwargs):
        captured.append(run_sharded(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(traffic, "run_sharded", capturing)
    gc.collect()  # what earlier tests left is not this case's
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, Farm)}
    row = run_traffic_case(case=0, seed=7, shards=1, **QUICK)
    (res,) = captured
    assert res.duration > TRAFFIC_START and res.cross_messages == 0
    assert res.metrics.counter("traffic.completed", domain="alpha").value > 0
    assert sum(res.counters.values()) > 0 and row["requests"]["issued"] > 0
    assert [
        obj for obj in gc.get_objects() if isinstance(obj, Farm) and id(obj) not in before
    ] == []


def test_quiet_farm_meets_full_availability():
    row = run_traffic_case(case=0, seed=7, **QUICK)
    assert row["availability"] == 1.0
    assert row["requests"]["failed"] == 0
    assert row["violations"] == []


def test_autoscaler_moves_under_load_and_counts_them():
    row = run_traffic_case(case=0, seed=0, **CASE)
    assert row["moves"]["grow"] >= 1
    assert row["moves"]["total"] == row["moves"]["grow"] + row["moves"]["shrink"]
    assert row["moves_per_hour"] == pytest.approx(
        row["moves"]["total"] * 3600.0 / CASE["duration"]
    )


def test_a_violation_reaches_the_row_and_voids_the_moves(monkeypatch):
    """No golden row holds a violation. A 0 s merge bound turns the
    two-leader moment of a live move into a ``single_leader`` violation:
    each reaches the row as the monitor's ``Violation.as_dict()``, and the
    row's moves are not sustained without violation."""
    seen = []

    class StrictMonitor(InvariantMonitor):
        def __init__(self, farm, windows, vlan_scope):
            strict = dataclasses.replace(windows, merge_bound=0.0)
            super().__init__(farm, windows=strict, vlan_scope=vlan_scope)

        def finalize(self):
            violations = super().finalize()
            seen.extend(violations)
            return violations

    monkeypatch.setattr(traffic, "InvariantMonitor", StrictMonitor)
    row = run_traffic_case(case=0, seed=0, **CASE)
    assert seen and row["violations"] == [v.as_dict() for v in seen]
    assert {v["invariant"] for v in row["violations"]} == {"single_leader"}
    assert row["moves"]["total"] > 0 and row["moves_per_hour"] == 0.0


def test_case_is_deterministic():
    a = run_traffic_case(case=0, seed=3, **QUICK)
    b = run_traffic_case(case=0, seed=3, **QUICK)
    assert canon(a) == canon(b)


def test_chaos_case_keeps_invariants_and_reports_faults():
    row = run_traffic_case(case=0, seed=3, mix="mixed", duration=20.0,
                           rate=80.0, n_users=50_000)
    assert sum(row["faults"].values()) >= 6
    assert row["violations"] == []
    assert row["checks"]["single_leader"] > 0
    # chaos costs availability but the service survives
    assert 0.9 < row["availability"] <= 1.0


def test_unknown_mix_rejected():
    with pytest.raises(ValueError, match="unknown mix"):
        build_traffic_farm(mix="nosuch")


# ----------------------------------------------------------------------
# the profile shape
# ----------------------------------------------------------------------
def test_profile_shape_changes_the_stream():
    """``profile=`` really changes results — and, being a kwarg, it is in
    the result-cache key by construction."""
    diurnal = run_traffic_case(case=0, seed=7, **QUICK)
    flat = run_traffic_case(case=0, seed=7, profile="flat", **QUICK)
    assert canon(diurnal) != canon(flat)
    # flat holds every domain at full rate for the whole window, so it
    # strictly outproduces the diurnal wave (trough 0.25)
    assert flat["requests"]["issued"] > diurnal["requests"]["issued"]
    assert canon(run_traffic_case(case=0, seed=7, profile="diurnal", **QUICK)) == canon(diurnal)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown workload profile"):
        build_traffic_farm(profile="nosuch")


def test_profile_reaches_spawned_workers():
    """A non-default profile is a task argument, so spawned sweep workers
    (``jobs=2``) — which inherit nothing from this process but their
    pickled arguments — compute the rows the in-process run does."""
    inline = run_traffic_campaign(cases=2, jobs=1, profile="flat", **QUICK)
    assert canon(run_traffic_campaign(cases=2, jobs=2, profile="flat", **QUICK)) == canon(inline)
    assert canon(inline) != canon(run_traffic_campaign(cases=2, jobs=1, **QUICK))


def test_traffic_horizon_covers_stream_and_settle():
    assert traffic_horizon(30.0, None) == pytest.approx(TRAFFIC_START + 30.0 + 11.0)
    # a chaos mix settles on the monitor's window, which is longer
    assert traffic_horizon(30.0, "mixed") > traffic_horizon(30.0, None)


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_campaign_rows_identical_at_any_jobs():
    kw = dict(cases=3, base_seed=0, duration=15.0, rate=80.0, n_users=50_000)
    inline = run_traffic_campaign(jobs=1, **kw)
    pooled = run_traffic_campaign(jobs=2, **kw)
    assert canon(inline) == canon(pooled)


def test_campaign_seeds_cases_independently():
    rows = run_traffic_campaign(cases=2, jobs=1, **QUICK)
    assert [r["case"] for r in rows] == [0, 1]
    assert rows[0]["seed"] != rows[1]["seed"]
    assert canon(rows[0]["requests"]) != canon(rows[1]["requests"])


def test_replicates_are_whole_independent_rows():
    """--replicates repeats each case with fresh seeds as a second grid
    axis — whole SLO rows, never the sweep fabric's mean/_sd collapse
    (which would average seeds and keep only the first nested dict)."""
    rows = run_traffic_campaign(cases=2, replicates=2, jobs=1, **QUICK)
    assert [(r["case"], r["rep"]) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len({r["seed"] for r in rows}) == 4
    assert canon(rows[0]["requests"]) != canon(rows[1]["requests"])
    for r in rows:  # structured fields survive whole
        assert isinstance(r["requests"], dict)
        assert "requests_sd" not in r

    report = build_traffic_report(rows, base_seed=0)
    assert report["campaign"]["cases"] == 2
    assert report["campaign"]["replicates"] == 2
    assert report["requests"]["issued"] == sum(r["requests"]["issued"] for r in rows)


def test_replicates_must_be_positive():
    with pytest.raises(ValueError, match="replicates"):
        run_traffic_campaign(cases=1, replicates=0, **QUICK)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def _row(case, violations=(), moves=5, issued=1000, completed=990):
    return {
        "case": case,
        "seed": 100 + case,
        "mix": None,
        "duration": 30.0,
        "stable_time": 9.0,
        "requests": {"issued": issued, "completed": completed,
                     "failed": issued - completed, "retried": 3},
        "availability": completed / issued,
        "latency": {"p50": 0.04, "p90": 0.05, "p99": 0.06 + case, "mean": 0.045},
        "domains": {},
        "moves": {"grow": moves, "shrink": 0, "total": moves},
        "moves_per_hour": moves * 120.0,
        "checks": {"single_leader": 10, "membership_agreement": 20},
        "waived": 1,
        "violations": list(violations),
        "faults": {"crash": 2},
        "n_islands": 1,
        "cross_messages": 0,
    }


def test_report_folds_rows():
    report = build_traffic_report([_row(0), _row(1)], base_seed=0)
    assert report["requests"]["issued"] == 2000
    assert report["slo"]["availability"] == pytest.approx(0.99)
    assert report["slo"]["latency_worst"]["p99"] == pytest.approx(1.06)
    assert report["moves"]["total"] == 10
    assert report["moves_per_hour_sustained"] == pytest.approx(10 * 3600.0 / 60.0)
    assert report["checks"]["single_leader"] == 20
    assert report["faults_injected"] == {"crash": 4}
    assert report["obligations_waived"] == 2
    assert report["ok"] is True


def test_any_violation_zeroes_the_headline_number():
    bad = _row(1, violations=[{"time": 31.0, "invariant": "single_leader",
                               "subject": "vlan-20", "detail": "two leaders"}])
    report = build_traffic_report([_row(0), bad], base_seed=0)
    assert report["ok"] is False
    assert report["moves_per_hour_sustained"] == 0.0
    assert report["violations"][0]["case"] == 1
    assert "VIOLATIONS" in render_traffic_report(report)


def test_report_is_canonical_json(tmp_path):
    report = build_traffic_report([_row(0)], base_seed=0)
    path = tmp_path / "slo.json"
    assert write_report(report, path) == path
    text = path.read_text()
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == report


def test_render_mentions_the_slos():
    out = render_traffic_report(build_traffic_report([_row(0)], base_seed=0))
    assert "availability" in out
    assert "moves/hour sustained" in out
    assert "no invariant violations" in out
