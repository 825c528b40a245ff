"""The content-addressed result cache."""

import json

import pytest

from repro.runner import ResultCache, code_fingerprint, default_cache_dir
from repro.runner.cache import MISS


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path, fingerprint="f0")


def test_roundtrip(cache):
    key = cache.key("exp", {"n": 5, "seed": 12})
    assert cache.get(key) is MISS
    assert cache.put(key, {"stable_s": 30.5, "ok": True})
    assert cache.get(key) == {"stable_s": 30.5, "ok": True}
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
    assert cache.hit_rate == 0.5


def test_key_covers_experiment_kwargs_and_fingerprint(tmp_path):
    a = ResultCache(root=tmp_path, fingerprint="f0")
    b = ResultCache(root=tmp_path, fingerprint="f1")
    k = a.key("exp", {"n": 5})
    assert a.key("exp", {"n": 6}) != k
    assert a.key("exp2", {"n": 5}) != k
    # a code edit (different fingerprint) invalidates everything
    assert b.key("exp", {"n": 5}) != k
    # kwarg order does not
    assert a.key("exp", {"n": 5, "m": 1}) == a.key("exp", {"m": 1, "n": 5})


def test_key_ignores_the_environment(cache, monkeypatch):
    """A task's identity is its arguments and the code: no ``GULFSTREAM_*``
    variable is an input to a result, so none may move the key."""
    for var in ("GULFSTREAM_SIM_BACKEND", "GULFSTREAM_SHARDS",
                "GULFSTREAM_WORKLOAD_PROFILE"):
        monkeypatch.delenv(var, raising=False)
    base = cache.key("exp", {"n": 5})
    for var, value in (("GULFSTREAM_SIM_BACKEND", "heap"),
                       ("GULFSTREAM_SHARDS", "4"),
                       ("GULFSTREAM_WORKLOAD_PROFILE", "flat")):
        monkeypatch.setenv(var, value)
        assert cache.key("exp", {"n": 5}) == base, var


def test_key_separates_profile_and_shards_kwargs(cache):
    """What used to ride in the environment now rides in the kwargs, where
    the key sees it: a ``flat`` run can never replay a ``diurnal`` row."""
    keys = {
        cache.key("workload", {"case": 0, "profile": profile, "shards": shards})
        for profile in ("diurnal", "flat", "flash")
        for shards in (1, 2)
    }
    assert len(keys) == 6


def test_unserializable_results_are_skipped_not_fatal(cache):
    key = cache.key("exp", {"n": 1})
    assert not cache.put(key, {"obj": object()})
    assert cache.get(key) is MISS
    assert cache.stores == 0


def test_clear_and_len(cache):
    for n in range(3):
        cache.put(cache.key("exp", {"n": n}), {"v": n})
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0
    assert cache.get(cache.key("exp", {"n": 0})) is MISS


def test_corrupt_entry_is_a_miss(cache, tmp_path):
    key = cache.key("exp", {"n": 1})
    cache.put(key, {"v": 1})
    (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
    assert cache.get(key) is MISS


def test_entry_missing_result_field_is_a_miss_and_evicted(cache, tmp_path):
    """Well-formed JSON without "result" (truncated rewrite, foreign file)
    must be a counted miss — not an uncaught KeyError after a counted hit —
    and the bad entry must be evicted so a later put can heal it."""
    key = cache.key("exp", {"n": 3})
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"key": key, "other": 1}), encoding="utf-8")
    assert cache.get(key) is MISS
    assert cache.hits == 0 and cache.misses == 1
    assert not path.exists()
    # non-dict top-level documents are the same class of garbage
    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    assert cache.get(key) is MISS
    assert cache.hits == 0 and cache.misses == 2
    assert not path.exists()
    # the slot heals on the next put
    assert cache.put(key, {"v": 3})
    assert cache.get(key) == {"v": 3}
    assert cache.hits == 1


def test_nan_results_are_refused_not_written_as_invalid_json(cache, tmp_path):
    """allow_nan output ("NaN"/"Infinity" literals) is not strict JSON; a
    result carrying them must be skipped like any unserializable value."""
    for bad in (float("nan"), float("inf"), float("-inf")):
        key = cache.key("exp", {"v": repr(bad)})
        assert not cache.put(key, {"metric": bad})
        assert cache.get(key) is MISS
    assert cache.stores == 0
    assert not list(tmp_path.glob("*.json"))


def test_concurrent_puts_of_same_key_never_collide(cache, tmp_path):
    """Two pool workers storing the same grid point must not share a tmp
    file: with the shared <key>.tmp scheme one writer's os.replace could
    steal the other's tmp out from under it (FileNotFoundError) or publish
    interleaved bytes."""
    import threading

    key = cache.key("exp", {"n": 9})
    rounds = 100
    start = threading.Barrier(2)
    errors = []

    def writer(value):
        try:
            start.wait()
            for _ in range(rounds):
                assert cache.put(key, {"v": value})
        except Exception as exc:  # pragma: no cover - the pre-fix failure
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # the published entry is whole and valid — never an interleaving
    assert cache.get(key) in ({"v": 0}, {"v": 1})
    # no abandoned tmp files accumulate in the cache directory
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*.tmp"))


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("GULFSTREAM_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("GULFSTREAM_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "gulfstream-sim"


def test_code_fingerprint_stable_within_process():
    f = code_fingerprint()
    assert f == code_fingerprint()
    assert len(f) == 16
    int(f, 16)  # hex


def test_entries_are_json_files_on_disk(cache, tmp_path):
    key = cache.key("exp", {"n": 2})
    cache.put(key, {"v": 2.5})
    doc = json.loads((tmp_path / f"{key}.json").read_text())
    assert doc["result"] == {"v": 2.5}
    assert doc["key"] == key
