"""run_sweep: seeding + replication + caching + pool, end to end.

Task callables are module-level so the spawn pool can import them.
"""

import pytest

from repro.runner import ResultCache, run_sweep, task_seed


def seeded_metric(x, seed):
    # deterministic, seed-sensitive, cheap — a stand-in for a simulation
    return {"v": (seed % 1000) / 10.0 + x, "label": f"x={x}"}


def unfixed_metric(x, y):
    return {"prod": x * y}


def test_defaults_are_the_serial_grid_evaluation():
    rows = run_sweep(unfixed_metric, {"x": [1, 2], "y": [10, 20]})
    assert rows == [
        {"x": 1, "y": 10, "prod": 10},
        {"x": 1, "y": 20, "prod": 20},
        {"x": 2, "y": 10, "prod": 20},
        {"x": 2, "y": 20, "prod": 40},
    ]


def test_seed_arg_injects_task_hash_seeds():
    rows = run_sweep(seeded_metric, {"x": [1, 2]}, seed_arg="seed", experiment="e")
    expected = [
        (task_seed("e", {"x": x}, 0, 0) % 1000) / 10.0 + x for x in (1, 2)
    ]
    assert [r["v"] for r in rows] == expected


def test_parallel_rows_identical_to_serial_at_fixed_seed():
    """The acceptance contract: any ``jobs`` value produces byte-identical
    rows, because seeds depend only on the task identity."""
    kwargs = dict(seed_arg="seed", experiment="identity", base_seed=3, replicates=2)
    serial = run_sweep(seeded_metric, {"x": list(range(6))}, **kwargs)
    parallel2 = run_sweep(seeded_metric, {"x": list(range(6))}, jobs=2, **kwargs)
    parallel5 = run_sweep(seeded_metric, {"x": list(range(6))}, jobs=5, **kwargs)
    assert serial == parallel2 == parallel5


def test_cartesian_order_with_fixed_kwargs():
    rows = run_sweep(lambda x, y, k: {"sum": x + y + k}, {"x": [1, 2], "y": [10, 20]},
                     fixed={"k": 100})
    # fixed kwargs feed the call but only grid keys land in the row
    assert rows[0] == {"x": 1, "y": 10, "sum": 111}
    assert [r["sum"] for r in rows] == [111, 121, 112, 122]


def test_empty_value_list_yields_no_rows():
    assert run_sweep(lambda x: {"y": x}, {"x": []}) == []


def test_empty_grid_is_one_fixed_point():
    rows = run_sweep(lambda k: {"out": k * 2}, {}, fixed={"k": 21})
    assert rows == [{"out": 42}]


def test_replicates_aggregate_mean_sd_and_keep_labels():
    rows = run_sweep(seeded_metric, {"x": [5]}, replicates=4, seed_arg="seed",
                     experiment="agg")
    (row,) = rows
    vals = [
        (task_seed("agg", {"x": 5}, rep, 0) % 1000) / 10.0 + 5 for rep in range(4)
    ]
    assert row["v"] == pytest.approx(sum(vals) / 4)
    assert row["v_sd"] > 0
    assert row["label"] == "x=5"  # non-numeric: first replicate's value
    assert row["replicates"] == 4


def test_replicates_must_be_positive():
    with pytest.raises(ValueError):
        run_sweep(seeded_metric, {"x": [1]}, replicates=0)


def test_empty_point_grid_runs_one_task():
    # the CLI's replicated `discover` sweeps a single implicit point
    rows = run_sweep(seeded_metric, {}, fixed={"x": 1}, replicates=3,
                     seed_arg="seed", experiment="single")
    (row,) = rows
    assert row["replicates"] == 3


def test_cache_cold_then_warm(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f0")
    opts = dict(seed_arg="seed", experiment="c", replicates=2, cache=cache)
    cold = run_sweep(seeded_metric, {"x": [1, 2]}, **opts)
    assert (cache.hits, cache.misses, cache.stores) == (0, 4, 4)
    warm = run_sweep(seeded_metric, {"x": [1, 2]}, **opts)
    assert (cache.hits, cache.misses) == (4, 4)
    assert warm == cold


def test_cache_recomputes_only_new_points(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f0")
    opts = dict(seed_arg="seed", experiment="c", cache=cache)
    run_sweep(seeded_metric, {"x": [1, 2]}, **opts)
    # extend the grid: old points replay, only x=3 computes
    run_sweep(seeded_metric, {"x": [1, 2, 3]}, **opts)
    assert cache.hits == 2
    assert cache.stores == 3


def test_code_fingerprint_change_invalidates(tmp_path):
    opts = dict(seed_arg="seed", experiment="c")
    old = ResultCache(root=tmp_path, fingerprint="rev-a")
    run_sweep(seeded_metric, {"x": [1]}, cache=old, **opts)
    new = ResultCache(root=tmp_path, fingerprint="rev-b")
    run_sweep(seeded_metric, {"x": [1]}, cache=new, **opts)
    assert new.hits == 0 and new.misses == 1 and new.stores == 1


def test_cached_rows_survive_json_roundtrip_identically(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f0")
    opts = dict(seed_arg="seed", experiment="rt", replicates=3, cache=cache)
    cold = run_sweep(seeded_metric, {"x": [1, 7]}, **opts)
    warm = run_sweep(seeded_metric, {"x": [1, 7]}, **opts)
    assert warm == cold  # float repr round-trip is exact
