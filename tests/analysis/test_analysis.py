"""Measurement harnesses: stability and table formatting."""

import pytest

from repro.analysis import eq1_prediction, format_table, measure_stability
from repro.gulfstream.params import GSParams
from repro.node.osmodel import OSParams


SMALL = GSParams(beacon_duration=1.0, amg_stable_wait=1.0, gsc_stable_wait=2.0,
                 beacon_interval=0.5)


def test_eq1_prediction():
    p = GSParams(beacon_duration=5, amg_stable_wait=5, gsc_stable_wait=15)
    assert eq1_prediction(p) == 25.0
    assert eq1_prediction(p, delta=5.5) == 30.5


def test_measure_stability_full_discovery():
    r = measure_stability(4, beacon_duration=1.0, seed=1, params=SMALL,
                          os_params=OSParams.fast())
    assert r.adapters_discovered == r.n_adapters == 12
    assert r.groups_discovered == 3
    # delta decomposition sums to delta (by construction)
    assert r.delta == pytest.approx(r.delta_formation + r.delta_reporting, abs=1e-6)
    assert r.stable_time == pytest.approx(r.configured + r.delta, abs=1e-6)


def test_measure_stability_delta_positive_with_os_model():
    r = measure_stability(3, beacon_duration=1.0, seed=2, params=SMALL)
    assert r.delta > 0


def test_measure_stability_timeout_raises():
    with pytest.raises(RuntimeError):
        measure_stability(3, beacon_duration=1.0, seed=3, params=SMALL, timeout=0.5)


def test_format_table_renders():
    out = format_table(
        [{"n": 5, "t": 1.2345}, {"n": 50, "t": 2.0}],
        columns=["n", "t"],
        headers=["nodes", "time"],
        title="demo",
    )
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "nodes" in lines[1] and "time" in lines[1]
    assert "1.23" in out and "50" in out


def test_format_table_empty_rows():
    out = format_table([], columns=["a"], title=None)
    assert "a" in out


def test_format_table_non_float_cells():
    out = format_table(
        [{"name": "ring", "k": 2, "ok": True, "note": None}],
        columns=["name", "k", "ok", "note", "absent"],
    )
    last = out.splitlines()[-1]
    assert "ring" in last and "2" in last and "True" in last and "None" in last
    # a column missing from the row renders as blank, not a crash
    assert last.rstrip().endswith("None")
