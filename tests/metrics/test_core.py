"""The metrics primitives: instruments, keys, sampling, and detaching a
registry from its simulator."""

import pytest

from repro.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry, metric_key


# ----------------------------------------------------------------------
# keys & identity
# ----------------------------------------------------------------------
def test_metric_key_formats():
    assert metric_key("sim.events", ()) == "sim.events"
    assert metric_key("net.frames", (("vlan", "10"),)) == "net.frames{vlan=10}"
    assert metric_key("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"


def test_same_name_and_labels_return_the_same_object():
    reg = MetricsRegistry()
    a = reg.counter("net.segment.frames_sent", vlan=10)
    b = reg.counter("net.segment.frames_sent", vlan=10)
    assert a is b
    # labels are normalized: kwargs order and value type don't matter
    c = reg.gauge("g", b=2, a=1)
    d = reg.gauge("g", a="1", b="2")
    assert c is d


def test_different_labels_are_distinct_instruments():
    reg = MetricsRegistry()
    v10 = reg.counter("net.segment.frames_sent", vlan=10)
    v20 = reg.counter("net.segment.frames_sent", vlan=20)
    assert v10 is not v20
    v10.inc(5)
    assert v20.value == 0


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")
    reg.histogram("h")
    with pytest.raises(TypeError):
        reg.counter("h")


# ----------------------------------------------------------------------
# counters & gauges
# ----------------------------------------------------------------------
def test_counter_is_monotonic():
    c = Counter("c", ())
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    c.set_total(9)
    assert c.value == 9
    with pytest.raises(ValueError):
        c.set_total(8)
    c.set_total(9)  # equal is fine (idempotent collectors)


def test_gauge_moves_both_ways():
    g = Gauge("g", ())
    g.set(3.0)
    g.inc()
    g.dec(2.0)
    assert g.value == 2.0
    assert g.value_dict() == {"value": 2.0}


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_bucket_edges_use_le_semantics():
    h = Histogram("h", (), buckets=(1.0, 2.0, 5.0))
    for v in (0.5, 1.0, 1.5, 2.0, 5.0, 7.0):
        h.observe(v)
    # an observation equal to a bound lands in that bound's bucket
    assert h.bucket_counts == [2, 2, 1, 1]  # <=1, <=2, <=5, +inf
    assert h.count == 6
    assert h.sum == pytest.approx(17.0)
    assert h.min == 0.5 and h.max == 7.0


def test_histogram_bounds_validation():
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=())
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=(1.0, 1.0, 2.0))


def test_histogram_percentiles_are_clamped_and_ordered():
    h = Histogram("h", (), buckets=(1.0, 2.0, 4.0))
    for v in (0.2, 0.4, 0.6, 0.8, 3.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    # with one observation, every percentile is that observation
    one = Histogram("one", (), buckets=(10.0,))
    one.observe(3.5)
    assert one.percentile(50) == 3.5
    assert one.percentile(99) == 3.5


def test_histogram_empty_summary_is_all_zero():
    h = Histogram("h", ())
    assert h.bounds == DEFAULT_BUCKETS
    s = h.summary()
    assert s["count"] == 0
    assert all(v == 0 for v in s.values())
    with pytest.raises(ValueError):
        h.percentile(0)


# ----------------------------------------------------------------------
# collectors & sampling
# ----------------------------------------------------------------------
def test_pull_collector_runs_at_collect_time():
    reg = MetricsRegistry()
    tally = {"frames": 0}
    total = reg.counter("frames")
    reg.register_collector(lambda: total.set_total(tally["frames"]))
    tally["frames"] = 7
    assert total.value == 0  # nothing until collect()
    reg.collect()
    assert total.value == 7
    tally["frames"] = 9
    assert reg.snapshot()["frames"] == {"value": 9}


def test_sample_uses_the_clock_and_records_a_series():
    now = {"t": 0.0}
    reg = MetricsRegistry(clock=lambda: now["t"])
    c = reg.counter("c")
    c.inc()
    reg.sample()
    now["t"] = 5.0
    c.inc()
    reg.sample()
    assert [t for t, _ in reg.samples] == [0.0, 5.0]
    assert [s["c"]["value"] for _, s in reg.samples] == [1, 2]


def test_clockless_registry_numbers_its_samples():
    reg = MetricsRegistry()
    reg.sample()
    reg.sample()
    reg.sample(t=42.0)
    assert [t for t, _ in reg.samples] == [0.0, 1.0, 42.0]


# ----------------------------------------------------------------------
# detaching from the simulator
# ----------------------------------------------------------------------
def test_detach_keeps_the_values_and_drops_the_collectors_and_the_clock():
    """A traffic case's registry outlives its farm this way: one last
    collect, then nothing in it reaches the simulator."""
    tally = {"frames": 0}
    reg = MetricsRegistry(clock=lambda: 42.0)
    reg.register_collector(lambda: reg.counter("pulled").set_total(tally["frames"]))
    reg.counter("c", vlan=10).inc(3)
    reg.gauge("g").set(10.0)
    h = reg.histogram("h", buckets=(1.0, 2.0))
    for v in (0.5, 1.5, 3.0):
        h.observe(v)
    tally["frames"] = 7
    assert reg.detach() is reg
    assert reg.clock is None and reg._collectors == []
    assert {m.key: m.value_dict() for m in reg} == {
        "c{vlan=10}": {"value": 3},
        "g": {"value": 10.0},
        "h": h.value_dict(),
        "pulled": {"value": 7},
    }
    assert h.bucket_counts == [1, 1, 1] and (h.count, h.sum) == (3, 5.0)
    tally["frames"] = 9
    reg.collect()  # no collector left to run
    assert reg.counter("pulled").value == 7
