"""``Simulator.post``: an event nobody can cancel, filed without a handle.

A posted entry takes its seq like ``schedule`` would, so it fires in the
same place; it counts wherever an event counts (pending, budget, executed)
and survives every compaction of cancelled entries.
"""

import math

import pytest

from repro.sim.engine import PURGE_THRESHOLD, WHEEL_GRANULARITY, SimulationError, Simulator


def test_post_returns_no_handle():
    sim = Simulator()
    fired = []
    assert sim.post(1.0, fired.append, "x") is None
    sim.run()
    assert fired == ["x"] and sim.now == 1.0


def test_same_instant_fifo_with_schedule_schedule_at_and_reserved_slots():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "schedule")
    sim.post(1.0, fired.append, "post")
    slot = sim.reserve_seq()
    sim.schedule_at(1.0, fired.append, "schedule_at")
    sim.post(1.0, fired.append, "post again")
    sim.schedule_at(1.0, fired.append, "reserved", seq=slot)  # filed last, keyed earlier
    sim.run()
    assert fired == ["schedule", "post", "reserved", "schedule_at", "post again"]


@pytest.mark.parametrize("at", [0.5, 2 * WHEEL_GRANULARITY, 100.0])  # current tick, slot, overflow
def test_post_from_a_handler_keeps_fifo_in_every_tier(at):
    sim = Simulator()
    fired = []

    def handler():
        sim.post(0.0, fired.append, "post")
        sim.schedule(0.0, fired.append, "schedule")
        sim.post(0.0, fired.append, "post again")

    sim.schedule(at, handler)
    sim.post(at, fired.append, "queued before")
    sim.run()
    assert fired == ["queued before", "post", "schedule", "post again"]
    assert sim.now == at


def test_post_rejects_bad_delays():
    sim = Simulator()
    for delay in (-1.0, math.nan, math.inf):
        with pytest.raises(SimulationError):
            sim.post(delay, print)
    assert sim.pending_count() == 0


def test_run_until_leaves_later_posts_queued():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.post(t, fired.append, t)
    assert sim.run(until=2.5) == 2.5
    assert fired == [1.0, 2.0] and sim.pending_count() == 1
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_max_events_and_events_executed_count_posts():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.post(t, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=2)
    assert sim.events_executed == 2 and sim.pending_count() == 1
    sim.run(max_events=1)  # draining in exactly the budget is fine
    assert sim.events_executed == 3 and sim.pending_count() == 0


def test_next_event_time_sees_a_post_behind_a_cancelled_event():
    sim = Simulator()
    sim.schedule(1.0, print).cancel()
    sim.post(2.0, lambda: None)
    assert sim.next_event_time() == 2.0
    fired = []
    sim.post(0.5, fired.append, "early")
    assert sim.next_event_time() == 0.5
    sim.run()
    assert fired == ["early"] and sim.next_event_time() is None


def test_purge_keeps_posts_among_dead_entries():
    sim = Simulator()
    fired = []
    delays = (0.0, 1.0, 80.0)  # the current tick, a wheel slot, the overflow
    n = 4 * PURGE_THRESHOLD
    doomed = [sim.schedule(delays[i % 3], fired.append, ("dead", i)) for i in range(n)]
    posted = range(0, n, 2)
    for i in posted:
        sim.post(delays[i % 3], fired.append, i)
    for ev in doomed:
        ev.cancel()
    sim.post(5.0, fired.append, "last")  # a growing path runs the compaction check
    assert sim._dead == 0 and len(sim._queue) == len(posted) + 1
    sim.run()
    in_tier = [[i for i in posted if i % 3 == k] for k in range(3)]
    assert fired == in_tier[0] + in_tier[1] + ["last"] + in_tier[2]


def test_pending_count_counts_posts():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    ev = sim.schedule(1.0, lambda: None)
    sim.post(2.0, lambda: None)
    assert sim.pending_count() == 3
    ev.cancel()
    assert sim.pending_count() == 2
    sim.run(until=1.5)
    assert sim.pending_count() == 1
    sim.run()
    assert sim.pending_count() == 0
