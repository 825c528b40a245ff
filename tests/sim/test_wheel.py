"""The event queue: tier mechanics plus heap-equivalence by construction.

`test_engine.py` holds both configurations to the engine contract; this
module covers what is specific to the slotted wheel — slot binning, the
overflow tier, cursor jumps over idle stretches, slot reclamation — checks
that ``backend="heap"`` really is one binary heap, and then drives the
slotted wheel, the one-slot heap and a plain-``heapq`` reference queue
through randomized schedule/cancel/re-arm programs asserting the execution
histories are *identical*, which is the property the golden-trace
equivalence suite pins at farm scale.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    PURGE_THRESHOLD,
    WHEEL_GRANULARITY,
    WHEEL_SLOTS,
    Event,
    SimulationError,
    Simulator,
    default_backend,
)

HORIZON = WHEEL_GRANULARITY * WHEEL_SLOTS  # 64 s


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_explicit_backend_param_wins_over_env(monkeypatch):
    monkeypatch.setenv("GULFSTREAM_SIM_BACKEND", "heap")
    assert Simulator(backend="wheel").backend == "wheel"
    assert Simulator().backend == "heap"


def test_default_backend_is_wheel_and_env_is_validated(monkeypatch):
    monkeypatch.delenv("GULFSTREAM_SIM_BACKEND", raising=False)
    assert default_backend() == "wheel"
    monkeypatch.setenv("GULFSTREAM_SIM_BACKEND", "HEAP ")
    assert default_backend() == "heap"
    monkeypatch.setenv("GULFSTREAM_SIM_BACKEND", "")
    assert default_backend() == "wheel"
    # an unknown value is a loud error, not a silent fall-back to the wheel
    # (a typo would otherwise invisibly change what a benchmark measures)
    monkeypatch.setenv("GULFSTREAM_SIM_BACKEND", "calendar")
    with pytest.raises(ValueError, match="calendar"):
        default_backend()
    with pytest.raises(ValueError, match="calendar"):
        Simulator()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        Simulator(backend="btree")


def test_heap_backend_is_one_heap():
    """``backend="heap"`` is the queue with one slot that never advances:
    every entry, however far out, is filed into the one inflow heap, and
    the cursor never moves."""
    sim = Simulator(backend="heap")
    fired = []
    for delay in (HORIZON * 3 + 0.1, 0.5, 0.0, HORIZON + 0.25, WHEEL_GRANULARITY):
        sim.schedule(delay, fired.append, delay)
    assert len(sim._inflow) == 5
    assert len(sim._slots) == 1 and not sim._slots[0]
    assert sim._wheel_count == 0 and not sim._overflow

    def advance():
        raise AssertionError("the one-slot queue advanced its cursor")

    sim._advance = advance
    sim.run()
    assert fired == sorted(fired) and len(fired) == 5
    assert sim._cur_tick == 0 and not sim._run


def test_non_finite_times_are_rejected_on_both_backends():
    """NaN and infinite delays and times raise ``SimulationError`` and queue
    nothing. (The heap once took a NaN delay and fired it first, with
    ``now = nan``; the wheel failed with a bare ``ValueError``.)"""
    for backend in ("wheel", "heap"):
        sim = Simulator(backend=backend)
        fired = []
        periodic = sim.schedule(0.5, fired.append, "periodic")
        sim.run(until=1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SimulationError):
                sim.schedule(bad, fired.append, "schedule")
            with pytest.raises(SimulationError):
                sim.schedule_at(bad, fired.append, "schedule_at")
            with pytest.raises(SimulationError):
                sim.reschedule(periodic, bad)
        assert sim.pending_count() == 0 and not sim._queue
        sim.schedule(1.0, fired.append, "g")
        sim.run()
        assert fired == ["periodic", "g"] and sim.now == 2.0, backend


# ----------------------------------------------------------------------
# tier mechanics
# ----------------------------------------------------------------------
def test_overflow_tier_interleaves_with_wheel_slots():
    """Events beyond the 64 s horizon start in the overflow heap and still
    fire in global time order against near-term slot entries."""
    sim = Simulator(backend="wheel")
    fired = []
    sim.schedule(HORIZON * 3 + 0.1, fired.append, "far")
    sim.schedule(0.5, fired.append, "near")
    sim.schedule(HORIZON + 0.25, fired.append, "mid")
    assert len(sim._overflow) == 2
    sim.run()
    assert fired == ["near", "mid", "far"]


def test_cursor_jumps_over_idle_gaps():
    """An empty wheel jumps the cursor to the overflow's next tick instead
    of stepping through every intervening slot."""
    sim = Simulator(backend="wheel")
    fired = []
    sim.schedule(10_000.0, fired.append, "lone")
    assert sim.next_event_time() == 10_000.0
    # the peek poured the overflow entry; the cursor jumped straight to its
    # tick rather than advancing 640k slots one by one
    assert sim._cur_tick == int(10_000.0 / WHEEL_GRANULARITY)
    sim.run()
    assert fired == ["lone"] and sim.now == 10_000.0


def test_same_tick_events_keep_sub_granularity_time_order():
    """Multiple events binned into one slot still fire by exact time."""
    sim = Simulator(backend="wheel")
    fired = []
    # all three land in the same 1/64 s slot, out of order
    base = 2.0
    sim.schedule(base + WHEEL_GRANULARITY * 0.7, fired.append, "c")
    sim.schedule(base + WHEEL_GRANULARITY * 0.1, fired.append, "a")
    sim.schedule(base + WHEEL_GRANULARITY * 0.4, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_inflow_handles_scheduling_behind_the_poured_slot():
    """A handler scheduling a sub-slot follow-up (delay smaller than the
    granularity) lands behind the cursor and must still fire, in order."""
    sim = Simulator(backend="wheel")
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1e-6, fired.append, "follow-up")
        sim.schedule(0.0, fired.append, "now")

    sim.schedule(1.0, first)
    sim.schedule(1.0 + WHEEL_GRANULARITY / 2, fired.append, "same-slot-later")
    sim.run()
    assert fired == ["first", "now", "follow-up", "same-slot-later"]


def test_slot_reclamation_purges_all_tiers():
    """_purge() drops cancelled entries from the inflow, slots, and overflow."""
    sim = Simulator(backend="wheel")
    near = [sim.schedule(1.0 + i * 0.1, lambda: None) for i in range(40)]
    far = [sim.schedule(HORIZON + 10.0 + i, lambda: None) for i in range(40)]
    inflow = [sim.schedule(0.0, lambda: None) for i in range(40)]
    for ev in near + far + inflow:
        ev.cancel()
    assert sim._dead == 120
    sim._purge()
    assert sim._dead == 0 and sim._resident() == 0
    assert sim._wheel_count == 0 and not sim._overflow and not sim._inflow
    keeper = sim.schedule(2.0, lambda: None)
    sim.run()
    assert keeper.fired and sim.now == 2.0


def test_growing_paths_skip_the_purge_check_while_it_cannot_fire():
    """Dead entries above the threshold but under half the queue cannot be
    compacted. Until enough more die, ``schedule``/``schedule_at``/
    ``reschedule`` must not even call ``_maybe_purge`` (and through it the
    queue's ``_resident`` count) — and once they have died, the next of
    them still compacts."""
    sim = Simulator(backend="wheel")
    timers = [sim.schedule(0.1, lambda: None) for _ in range(200)]
    sim.run(until=1.0)
    far = [sim.schedule(1000.0 + i, lambda: None) for i in range(1000)]
    for ev in far[: PURGE_THRESHOLD + 10]:
        ev.cancel()
    calls = []
    check = sim._maybe_purge

    def counting():
        calls.append(1)
        check()

    sim._maybe_purge = counting
    for i in range(300):
        sim.schedule(2000.0 + i, lambda: None)
        sim.schedule_at(3000.0 + i, lambda: None)
    for ev in timers:
        sim.reschedule(ev, 5.0)
    assert PURGE_THRESHOLD < sim._dead < len(sim._queue) / 2
    assert len(calls) <= 1, len(calls)
    for ev in far:
        ev.cancel()
    sim.schedule(1.0, lambda: None)
    assert sim._dead == 0 and len(sim._queue) == 1 + 200 + 600


def test_wheel_len_and_queue_property_count_every_tier():
    sim = Simulator(backend="wheel")
    sim.schedule(0.0, lambda: None)          # inflow
    sim.schedule(1.0, lambda: None)          # slot
    sim.schedule(HORIZON * 2, lambda: None)  # overflow
    assert sim._resident() == 3
    assert len(sim._queue) == 3
    sim.run(until=1.5)
    assert len(sim._queue) == 1


# ----------------------------------------------------------------------
# differential: the slotted wheel, the one-slot heap and a plain heapq
# reference replay identical histories
# ----------------------------------------------------------------------
class _Ref:
    """The reference queue: one plain ``heapq`` of ``(time, seq, event)``,
    popped until empty, cancelled events skipped."""

    def __init__(self):
        self.now, self.events_executed, self._seq, self._heap = 0.0, 0, 0, []

    def schedule(self, delay, fn, *args):
        # the engine's Event is a plain record here: no simulator owns it
        return self.reschedule(Event(0.0, 0, fn, args), delay)

    def reschedule(self, ev, delay):
        heapq.heappush(self._heap, (self.now + delay, self._seq, ev))
        self._seq += 1
        return ev

    def run(self):
        while self._heap:
            time, _, ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                self.now = time
                self.events_executed += 1
                ev.fn(*ev.args)


_QUEUES = {
    "wheel": lambda: Simulator(backend="wheel"),
    "heap": lambda: Simulator(backend="heap"),
    "heapq": _Ref,
}

# delays chosen to collide on exact instants and straddle slot and horizon
# boundaries (0, sub-slot, slot-edge, horizon-edge, beyond-horizon)
_POOL = [
    0.0,
    1e-6,
    WHEEL_GRANULARITY / 2,
    WHEEL_GRANULARITY,
    0.5,
    1.0,
    1.0,
    HORIZON - WHEEL_GRANULARITY,
    HORIZON,
    HORIZON + 0.25,
    HORIZON * 3,
]

_op = st.tuples(
    st.sampled_from(_POOL) | st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.booleans(),                                    # cancel before running
    st.none() | st.sampled_from(_POOL),               # in-handler respawn delay
)


def _replay(queue, program):
    sim = _QUEUES[queue]()
    log = []

    def fire(tag, respawn):
        log.append((sim.now, tag))
        if respawn is not None:
            sim.schedule(respawn, fire, tag + 10_000, None)

    scheduled = []
    for i, (delay, cancel, respawn) in enumerate(program):
        scheduled.append((sim.schedule(delay, fire, i, respawn), cancel))
    for ev, cancel in scheduled:
        if cancel:
            ev.cancel()
    sim.run()
    return log, sim.events_executed, sim.now


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=50))
def test_differential_same_history_on_both_backends(program):
    reference = _replay("heapq", program)
    assert _replay("heap", program) == reference
    assert _replay("wheel", program) == reference


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=12),
    st.integers(min_value=2, max_value=40),
)
def test_differential_periodic_rearm_same_history(periods, rounds):
    """reschedule()-driven periodic timers replay identically: re-armed
    events take fresh sequence numbers on both backends (as a re-push does
    in the reference), so same-instant FIFO among recycled and fresh events
    matches."""

    def replay(queue):
        sim = _QUEUES[queue]()
        log = []
        remaining = {}

        def tick(idx):
            log.append((sim.now, idx))
            if remaining[idx] > 0:
                remaining[idx] -= 1
                sim.reschedule(events[idx], periods[idx] + 1e-6)

        events = []
        for idx, _period in enumerate(periods):
            remaining[idx] = rounds
            events.append(sim.schedule(1e-6, tick, idx))
        sim.run()
        return log, sim.events_executed

    reference = replay("heapq")
    assert replay("heap") == reference
    assert replay("wheel") == reference
