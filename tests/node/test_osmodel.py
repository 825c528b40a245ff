"""OS model: delay distributions, serialized handling, determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.osmodel import OSModel, OSParams
from repro.sim.engine import Simulator


def test_ideal_params_are_all_zero():
    sim = Simulator()
    os = OSModel(sim, "h", OSParams.ideal())
    assert os.boot_delay() == 0.0
    assert os.beacon_stagger() == 0.0
    assert os.phase_lag() == 0.0


def test_draws_within_configured_ranges():
    sim = Simulator()
    os = OSModel(sim, "h", OSParams())
    for _ in range(100):
        assert 1.0 <= os.beacon_stagger() <= 2.0
        assert 0.0 <= os.boot_delay() <= 0.5
        assert 0.95 <= os.phase_lag() <= 1.35


def test_per_host_streams_are_independent():
    sim = Simulator(seed=1)
    a = OSModel(sim, "a", OSParams())
    b = OSModel(sim, "b", OSParams())
    assert [a.beacon_stagger() for _ in range(5)] != [b.beacon_stagger() for _ in range(5)]


def test_same_seed_same_host_reproducible():
    xs = [OSModel(Simulator(seed=9), "h", OSParams()).beacon_stagger() for _ in range(2)]
    assert xs[0] == xs[1]


def test_handle_runs_callback_with_delay():
    sim = Simulator()
    os = OSModel(sim, "h", OSParams(proc_delay=(0.01, 0.01)))
    done = []
    os.handle(lambda: done.append(sim.now))
    sim.run()
    assert done == [0.01]


def test_handle_serializes_under_load():
    """Concurrent handling queues behind in-flight work (single-threaded
    daemon): N events each costing d take N*d, not d."""
    sim = Simulator()
    os = OSModel(sim, "h", OSParams(proc_delay=(0.01, 0.01)))
    done = []
    for _ in range(5):
        os.handle(lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 5
    assert done[-1] >= 0.05 - 1e-9
    assert done == sorted(done)


def test_handle_ideal_is_immediate_but_ordered():
    sim = Simulator()
    os = OSModel(sim, "h", OSParams.ideal())
    done = []
    os.handle(done.append, 1)
    os.handle(done.append, 2)
    sim.run()
    assert done == [1, 2]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_property_serialized_total_time(n):
    sim = Simulator()
    os = OSModel(sim, "h", OSParams(proc_delay=(0.002, 0.002)))
    done = []
    for _ in range(n):
        os.handle(lambda: done.append(sim.now))
    sim.run()
    assert abs(done[-1] - n * 0.002) < 1e-9
