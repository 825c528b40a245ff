"""Event-loop semantics: ordering, cancellation, stopping, safety rails.

Every test here runs twice — once per event-queue backend — so the timer
wheel and the reference heap are held to the identical contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


@pytest.fixture(autouse=True, params=["wheel", "heap"])
def backend(request, monkeypatch):
    monkeypatch.setenv("GULFSTREAM_SIM_BACKEND", request.param)
    return request.param


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advances to the boundary
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []
    assert not ev.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert ev.cancelled and not ev.fired


def test_event_pending_lifecycle():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    assert ev.pending
    sim.run()
    assert ev.fired and not ev.pending


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_stop_halts_after_current_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_max_events_guard_trips():
    sim = Simulator()

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.1, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_count_and_next_event_time():
    sim = Simulator()
    assert sim.pending_count() == 0
    assert sim.next_event_time() is None
    ev = sim.schedule(2.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    assert sim.pending_count() == 2
    assert sim.next_event_time() == 2.0
    ev.cancel()
    assert sim.pending_count() == 1
    assert sim.next_event_time() == 5.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_executed == 5
    # the metrics plane reads the same count through its pull-collector
    sim.metrics.collect()
    assert sim.metrics.counter("sim.events.dispatched").value == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_property_execution_order_is_sorted(delays):
    """Whatever the scheduling order, execution times are non-decreasing."""
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


def test_pending_count_is_o1_counter():
    """pending_count is a maintained counter, exact through cancel/fire/run."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending_count() == 100
    for ev in events[:30]:
        ev.cancel()
    assert sim.pending_count() == 70
    # double-cancel must not double-decrement
    events[0].cancel()
    assert sim.pending_count() == 70
    sim.run(until=50.0)
    assert sim.pending_count() == sum(1 for ev in events if ev.pending)
    sim.run()
    assert sim.pending_count() == 0


def test_lazy_purge_compacts_heap_of_dead_events():
    """Mass-cancelled events do not linger in the heap forever."""
    from repro.sim.engine import PURGE_THRESHOLD

    sim = Simulator()
    doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(4 * PURGE_THRESHOLD)]
    for ev in doomed:
        ev.cancel()
    # scheduling is what triggers the compaction check
    keeper = sim.schedule(1.0, lambda: None)
    assert len(sim._queue) < len(doomed)
    assert sim.pending_count() == 1
    sim.run()
    assert keeper.fired and not any(ev.fired for ev in doomed)


def test_purge_during_run_keeps_loop_consistent():
    """In-place compaction mid-run must not detach the run loop's queue."""
    from repro.sim.engine import PURGE_THRESHOLD

    sim = Simulator()
    fired = []
    doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(4 * PURGE_THRESHOLD)]

    def cancel_all_then_reschedule():
        fired.append("first")
        for ev in doomed:
            ev.cancel()
        sim.schedule(1.0, fired.append, "second")  # triggers the purge check

    sim.schedule(1.0, cancel_all_then_reschedule)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.pending_count() == 0 and not sim._queue


def test_reschedule_triggers_dead_entry_compaction():
    """Re-arming must run the same compaction check as schedule(): a
    cancel-heavy workload whose only scheduling call is reschedule()
    previously piled dead entries up without ever compacting."""
    from repro.sim.engine import PURGE_THRESHOLD

    sim = Simulator()
    worker = sim.schedule(0.5, lambda: None)
    sim.run()
    doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(4 * PURGE_THRESHOLD)]
    for ev in doomed:
        ev.cancel()
    sim.reschedule(worker, 1.0)
    assert len(sim._queue) < len(doomed)
    assert sim.pending_count() == 1
    sim.run()
    assert worker.fired


def test_next_event_time_triggers_dead_entry_compaction():
    """Peeking must compact too: a monitor polling next_event_time() while
    cancellations pile up behind a live front event previously left the
    dead tail resident forever (only dead entries *at the top* were ever
    dropped)."""
    from repro.sim.engine import PURGE_THRESHOLD

    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    doomed = [sim.schedule(1000.0 + i, lambda: None) for i in range(4 * PURGE_THRESHOLD)]
    for ev in doomed:
        ev.cancel()
    assert sim.next_event_time() == 1.0
    assert len(sim._queue) < len(doomed)
    assert sim.pending_count() == 1


def test_cancel_heavy_workload_queue_stays_bounded():
    """Stress: cancel waves with only next_event_time() in between must
    keep the compaction invariant — dead entries never dominate a queue
    bigger than the threshold."""
    from repro.sim.engine import PURGE_THRESHOLD

    sim = Simulator()
    batch = PURGE_THRESHOLD
    pool = [sim.schedule(10_000.0 + i, lambda: None) for i in range(8 * batch)]
    while pool:
        # cancel from the far end, so the dead pile is never at the queue
        # front where the peek path would drop it incidentally
        doomed, pool = pool[-batch:], pool[:-batch]
        for ev in doomed:
            ev.cancel()
        sim.next_event_time()
        assert sim._dead <= PURGE_THRESHOLD or 2 * sim._dead <= len(sim._queue)
    assert sim.next_event_time() is None
    assert len(sim._queue) == 0 and sim.pending_count() == 0


def test_max_events_counts_fired_events_only():
    """Cancelled-event pops are free; only fired events hit the guard."""
    sim = Simulator()
    for i in range(50):
        sim.schedule(1.0 + i * 0.001, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    # 52 pops, but only 2 fired events: a guard of 2 must not trip
    assert sim.run(max_events=2) == 3.0
    assert sim.events_executed == 2


def test_reschedule_reuses_event_object():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0] and ev.fired
    again = sim.reschedule(ev, 2.0)
    assert again is ev and ev.pending
    sim.run()
    assert fired == [1.0, 3.0]
    assert sim.events_executed == 2


def test_reschedule_rejects_pending_and_cancelled_events():
    sim = Simulator()
    pending = sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.reschedule(pending, 1.0)  # still queued — would corrupt the heap
    pending.cancel()
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(pending, 1.0)  # cancelled events stay inert
    fired = sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reschedule(fired, -1.0)  # negative delays still rejected


def test_rescheduled_event_keeps_fifo_ordering():
    """A re-armed event gets a fresh sequence number: same-time FIFO holds."""
    sim = Simulator()
    order = []
    ev = sim.schedule(1.0, order.append, "recycled")
    sim.run()
    sim.reschedule(ev, 1.0)  # lands at t=2.0
    sim.schedule(1.0, order.append, "fresh")  # also t=2.0, scheduled later
    sim.run()
    assert order == ["recycled", "recycled", "fresh"]


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.run()
    ev.cancel()
    assert ev.fired and not ev.cancelled
    assert sim.pending_count() == 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_never_fire(items):
    """Exactly the non-cancelled events fire, regardless of interleaving."""
    sim = Simulator()
    fired = []
    events = []
    for i, (delay, cancel) in enumerate(items):
        events.append((sim.schedule(delay, fired.append, i), cancel))
    for ev, cancel in events:
        if cancel:
            ev.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected
