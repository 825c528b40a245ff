"""Timer behaviour: periodicity, jitter bounds, cancellation."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Timer


def test_timer_fires_periodically():
    sim = Simulator()
    ticks = []
    Timer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_timer_initial_delay():
    sim = Simulator()
    ticks = []
    Timer(sim, 1.0, lambda: ticks.append(sim.now), initial_delay=0.25)
    sim.run(until=2.5)
    assert ticks == [0.25, 1.25, 2.25]


def test_timer_zero_initial_delay_fires_immediately():
    sim = Simulator()
    ticks = []
    Timer(sim, 1.0, lambda: ticks.append(sim.now), initial_delay=0.0)
    sim.run(until=1.5)
    assert ticks == [0.0, 1.0]


def test_timer_cancel_stops_firing():
    sim = Simulator()
    ticks = []
    t = Timer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    t.cancel()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert not t.active


def test_timer_cancel_from_own_callback():
    sim = Simulator()
    ticks = []
    t = Timer(sim, 1.0, lambda: (ticks.append(sim.now), t.cancel()))
    sim.run(until=10.0)
    assert ticks == [1.0]


def test_timer_args_passed_through():
    sim = Simulator()
    seen = []
    Timer(sim, 1.0, seen.append, "payload")
    sim.run(until=2.5)
    assert seen == ["payload", "payload"]


def test_timer_jitter_stays_within_bounds():
    sim = Simulator(seed=7)
    rng = np.random.default_rng(0)
    ticks = []
    Timer(sim, 1.0, lambda: ticks.append(sim.now), jitter=0.2, rng=rng)
    sim.run(until=50.0)
    gaps = np.diff([0.0] + ticks)
    assert all(0.6 <= g <= 1.4 for g in gaps[1:])  # interval ± jitter (+slack)
    assert len(set(np.round(gaps, 6))) > 1  # actually jittered


def test_timer_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timer(sim, 0.0, lambda: None)
    with pytest.raises(ValueError):
        Timer(sim, 1.0, lambda: None, jitter=1.5)
    with pytest.raises(ValueError):
        Timer(sim, 1.0, lambda: None, jitter=0.1)  # jitter without rng


def test_timer_reuses_event_object_across_ticks():
    """The periodic fast path re-arms one Event instead of allocating."""
    sim = Simulator()
    t = Timer(sim, 1.0, lambda: None)
    sim.run(until=0.5)  # not yet fired: the initial event stands
    first = t._event
    assert first is not None and first.pending
    sim.run(until=10.5)
    assert t.fires == 10
    assert t._event is first  # same object, re-armed every tick
    assert first.pending
    t.cancel()
    assert not first.pending


def test_timer_event_reuse_preserves_tick_schedule():
    sim = Simulator()
    ticks = []
    Timer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    # heap does not accumulate one dead entry per past tick
    assert len(sim._queue) == 1


def test_timer_reuse_with_jitter_keeps_rng_stream():
    sim = Simulator()
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    ticks_a = []
    Timer(sim, 1.0, lambda: ticks_a.append(sim.now), jitter=0.2, rng=rng_a)
    sim.run(until=20.0)
    sim2 = Simulator()
    ticks_b = []
    Timer(sim2, 1.0, lambda: ticks_b.append(sim2.now), jitter=0.2, rng=rng_b)
    sim2.run(until=20.0)
    assert ticks_a == ticks_b  # same rng seed -> identical jittered schedule

