"""Deterministic task-seed derivation."""

from repro.gulfstream.params import GSParams
from repro.runner import canonical_json, stable_hash, task_seed


def test_task_seed_is_a_pure_function():
    a = task_seed("fig5", {"T_beacon": 5.0, "nodes": 10}, 0, 0)
    b = task_seed("fig5", {"T_beacon": 5.0, "nodes": 10}, 0, 0)
    assert a == b


def test_task_seed_key_order_irrelevant():
    assert task_seed("e", {"a": 1, "b": 2}) == task_seed("e", {"b": 2, "a": 1})


def test_task_seed_separates_every_dimension():
    base = task_seed("e", {"n": 1}, 0, 0)
    assert task_seed("other", {"n": 1}, 0, 0) != base
    assert task_seed("e", {"n": 2}, 0, 0) != base
    assert task_seed("e", {"n": 1}, 1, 0) != base
    assert task_seed("e", {"n": 1}, 0, 7) != base


def test_task_seed_fixes_the_correlated_seed_bug():
    """The old ``seed + nodes`` derivation reused one seed for the same
    node count across every T_beacon row; task hashing must not."""
    seeds = {
        task_seed("cli.fig5", {"T_beacon": tb, "nodes": n})
        for tb in (5.0, 10.0, 20.0)
        for n in (2, 10, 25, 55)
    }
    assert len(seeds) == 12


def test_task_seed_range_fits_every_rng():
    for rep in range(20):
        s = task_seed("e", {"x": rep}, rep)
        assert 0 <= s < 2 ** 63


def test_task_seed_pinned_value():
    """Algorithm drift (hash, canonicalization, truncation) would silently
    invalidate every cache and golden row — pin one value."""
    assert task_seed("pin", {"n": 1}, 0, 0) == stable_hash(
        {"experiment": "pin", "point": {"n": 1}, "replicate": 0, "base_seed": 0}
    )
    assert task_seed("pin", {"n": 1}, 0, 0) == 8459130701384071883


def test_canonical_json_reprs_dataclasses():
    # parameter objects hash by value, not identity
    assert canonical_json(GSParams()) == canonical_json(GSParams())
    assert canonical_json(GSParams()) != canonical_json(GSParams(beacon_duration=9.0))


def test_stable_hash_width():
    # a seed every RNG accepts: non-negative signed 64-bit
    assert all(0 <= stable_hash(x) < 2 ** 63 for x in ("x", 1, [2.0], {"k": None}))
