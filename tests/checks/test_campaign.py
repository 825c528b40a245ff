"""Campaign driver tests: farm naming, case rows, report shape, and the
byte-identical determinism guarantee."""

import json

import pytest

from repro.checks import (
    MIXES, build_named_farm, build_report, render_report, run_campaign,
    run_chaos_case, write_report,
)

MIX_NAMES = {"crash", "adapters", "partition", "leader", "mixed"}


def test_mix_catalogue():
    assert set(MIXES) == MIX_NAMES
    for name, weights in MIXES.items():
        assert weights, name
        assert all(w > 0 for w in weights.values()), name


def test_build_named_farm_parses_both_shapes():
    testbed = build_named_farm("testbed4", seed=0)
    assert len(testbed.hosts) == 4
    oceano = build_named_farm("oceano12", seed=0)
    assert len(oceano.hosts) == 12
    assert oceano.spare_nodes, "an oceano farm always has a free pool"


@pytest.mark.parametrize("bad", ["oceano", "farm55", "testbed0x", ""])
def test_build_named_farm_rejects_unknown_names(bad):
    with pytest.raises(ValueError):
        build_named_farm(bad, seed=0)


def test_case_row_shape_and_clean_small_case():
    row = run_chaos_case("crash", case=0, farm="testbed6", duration=15.0, seed=3)
    assert row["farm"] == "testbed6"
    assert row["seed"] == 3
    assert row["stable_time"] is not None
    assert row["violations"] == []
    assert row["checks"]["single_leader"] > 0
    assert sum(row["faults"].values()) >= 6, "a case injects a real fault load"


def test_unknown_mix_rejected():
    with pytest.raises(ValueError):
        run_campaign("testbed4", ["crash", "nope"], 1)


def test_campaign_reports_are_byte_identical_across_jobs(tmp_path):
    mixes = ["crash"]
    kw = dict(seeds=2, base_seed=7, duration=12.0)
    rows1 = run_campaign("testbed6", mixes, kw["seeds"], jobs=1,
                         base_seed=kw["base_seed"], duration=kw["duration"])
    rows2 = run_campaign("testbed6", mixes, kw["seeds"], jobs=2,
                         base_seed=kw["base_seed"], duration=kw["duration"])
    r1 = build_report(rows1, "testbed6", mixes, kw["seeds"], kw["base_seed"])
    r2 = build_report(rows2, "testbed6", mixes, kw["seeds"], kw["base_seed"])
    p1 = write_report(r1, str(tmp_path / "a.json"))
    p2 = write_report(r2, str(tmp_path / "b.json"))
    b1 = open(p1, "rb").read()
    b2 = open(p2, "rb").read()
    assert b1 == b2, "same campaign arguments must yield identical bytes"
    loaded = json.loads(b1)
    assert loaded["ok"] is True
    assert loaded["campaign"]["cases"] == 2
    assert set(loaded["checks"]) >= {"single_leader", "membership_agreement"}
    assert "p50" in loaded["detection_latency"]
    assert "zero" not in render_report(loaded) or loaded["violations"] == []


def test_repaired_waivers_are_reported_by_reason():
    # adapter faults are repaired within the chaos plan, mostly before the
    # detection obligation falls due: each such waiver is a "repaired" one
    row = run_chaos_case("adapters", case=0, farm="testbed6", duration=15.0, seed=0)
    assert row["waived"] > 0
    assert row["waived_by"] == {"gsc_failover": 0, "repaired": row["waived"]}
    report = build_report([{**row, "mix": "adapters", "case": 0}], "testbed6", ["adapters"], 1)
    assert report["obligations_waived_by_reason"] == row["waived_by"]
    assert f"repaired={row['waived']}" in render_report(report)
