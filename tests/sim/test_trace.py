"""Trace storage, counters, filtering, and subscriptions."""

from repro.sim.trace import Trace, TraceRecord


def test_emit_stores_and_counts():
    tr = Trace()
    tr.emit(1.0, "net.send", "a", vlan=2)
    tr.emit(2.0, "net.send", "b")
    tr.emit(3.0, "net.drop.loss", "b")
    assert tr.count("net.send") == 2
    assert tr.count("net.drop.loss") == 1
    assert len(tr) == 3
    assert tr.records[0].data == {"vlan": 2}


def test_count_prefix_sums_subcategories():
    tr = Trace()
    tr.emit(1.0, "net.drop.loss", "a")
    tr.emit(1.0, "net.drop.switch", "a")
    tr.emit(1.0, "net.send", "a")
    assert tr.count_prefix("net.drop") == 2
    assert tr.count_prefix("net.") == 3


def test_store_off_counts_but_does_not_store():
    tr = Trace(store=False)
    tr.emit(1.0, "x", "a")
    assert tr.count("x") == 1
    assert len(tr) == 0


def test_category_filter_stores_selectively():
    tr = Trace(categories={"keep"})
    tr.emit(1.0, "keep", "a")
    tr.emit(1.0, "drop", "a")
    assert len(tr) == 1
    assert tr.count("drop") == 1  # still counted


def test_max_records_cap_sets_truncated(monkeypatch):
    monkeypatch.setattr(Trace, "MAX_RECORDS", 2)
    tr = Trace()
    for i in range(5):
        tr.emit(float(i), "x", "a")
    assert len(tr) == 2
    assert tr.truncated
    assert tr.count("x") == 5


def test_select_by_category_and_source():
    tr = Trace()
    tr.emit(1.0, "a", "s1")
    tr.emit(2.0, "a", "s2")
    tr.emit(3.0, "b", "s1")
    assert len(tr.select(category="a")) == 2
    assert len(tr.select(source="s1")) == 2
    assert len(tr.select(category="a", source="s1")) == 1


def test_last_returns_most_recent():
    tr = Trace()
    tr.emit(1.0, "x", "a", n=1)
    tr.emit(2.0, "x", "a", n=2)
    rec = tr.last("x")
    assert rec is not None and rec.data["n"] == 2
    assert tr.last("missing") is None


def test_subscribe_sees_all_records():
    tr = Trace(store=False)
    seen = []
    tr.subscribe(seen.append)
    tr.emit(1.0, "x", "a")
    assert len(seen) == 1 and isinstance(seen[0], TraceRecord)


def test_subscribers_respect_category_filter():
    """The categories filter governs records consistently: storage and
    subscribers see the same stream, counters see everything."""
    tr = Trace(categories={"keep"})
    seen = []
    tr.subscribe(seen.append)
    tr.emit(1.0, "keep", "a")
    tr.emit(2.0, "drop", "a")
    assert [r.category for r in seen] == ["keep"]
    assert [r.category for r in tr.records] == ["keep"]
    assert tr.count("drop") == 1  # counted even though never materialized


def test_store_off_without_subscribers_is_pure_counting():
    """Benchmark mode: no TraceRecord is ever constructed."""
    import repro.sim.trace as trace_mod

    def boom(*a, **k):
        raise AssertionError("TraceRecord constructed on the fast path")

    real = trace_mod.TraceRecord
    trace_mod.TraceRecord = boom  # type: ignore[assignment]
    try:
        tr = Trace(store=False)
        for i in range(100):
            tr.emit(float(i), "x", "a", payload=i)
    finally:
        trace_mod.TraceRecord = real
    assert tr.count("x") == 100


def test_clear_resets_everything():
    tr = Trace()
    tr.emit(1.0, "x", "a")
    tr.clear()
    assert len(tr) == 0 and tr.count("x") == 0 and not tr.truncated


def test_record_str_renders():
    rec = TraceRecord(1.5, "cat", "src", {"k": "v"})
    assert "cat" in str(rec) and "k=v" in str(rec)


def test_wants_agrees_with_what_emit_stores_and_delivers():
    """``wants`` is the predicate a hot caller uses to skip building a
    record's payload: it must say exactly whether emit would build one."""
    for store in (True, False):
        for categories in (None, ["gs.view.install"], []):
            for subscribed in (True, False):
                for category in ("gs.view.install", "net.send"):
                    tr = Trace(store=store, categories=categories)
                    seen = []
                    if subscribed:
                        tr.subscribe(seen.append)
                    wanted = tr.wants(category)
                    tr.emit(1.0, category, "src", k=1)
                    built = bool(tr.records) or bool(seen)
                    case = (store, categories, subscribed, category)
                    assert wanted is built, case
                    assert tr.count(category) == 1, case
