"""The discrete-event engine.

A :class:`Simulator` owns a queue of :class:`Event` objects keyed by
``(time, sequence)``. Events scheduled for the same instant fire in
the order they were scheduled (FIFO), which keeps protocol traces stable and
debuggable. Cancellation is O(1): the event is flagged and skipped when it
surfaces.

The engine is deliberately tiny and allocation-light — large farm sweeps
schedule millions of events, and the paper's experiments (Figure 5) need
2..55-node farms with three adapters per node to run in well under a second
each so the benchmark harness can sweep them.

The queue is a timer wheel (see docs/PROTOCOL.md, "The timer-wheel event
queue"), and the simulator runs it itself: ``schedule``, ``schedule_at`` and
``reschedule`` file each ``(time, seq, event)`` tuple straight into
its tier (``post`` files a handle-less ``(time, seq, None, fn, args)`` one
for work nobody will cancel), and :meth:`Simulator.run` consumes the current
tier in its own loop. Near-term events go into O(1) slots (one per
:data:`WHEEL_GRANULARITY` seconds, :data:`WHEEL_SLOTS` of them), each slot is
sorted once when the cursor reaches it, events at or behind the cursor wait
in a small *inflow* heap merged with that sorted run, and far-future events
overflow into a heap of their own. Periodic near-term timers — the
overwhelming majority at farm scale (heartbeats, beacons, check timers) —
never pay per-op costs that grow with the total pending count.

``Simulator(backend="heap")`` is the same queue with one slot that never
advances: every entry sits in the inflow binary heap. It replays the
identical execution history (the golden-trace equivalence suite,
``tests/integration/test_backend_equivalence.py``, pins that), which makes it
the reference the wheel is compared against.

Performance invariants (relied on by the benchmarks, documented in
docs/PROTOCOL.md):

* :meth:`Simulator.pending_count` is O(1), backed by a live-event counter
  maintained by ``schedule``/``cancel``/``run``;
* cancelled events are purged *lazily*: they are skipped when they surface,
  and when more than half the queue (and at least :data:`PURGE_THRESHOLD`
  entries) is dead the queue is compacted, so long-lived piles of dead
  heartbeat timers do not bloat every queue operation. The compaction
  check runs on every path that grows the queue — ``schedule``,
  ``schedule_at``, ``reschedule`` — once enough entries have died since
  the last check for it to succeed (one integer compare until then), plus
  unconditionally in ``run`` and ``next_event_time``, so cancel-heavy
  workloads that only re-arm timers stay bounded too;
* :meth:`Simulator.reschedule` re-arms a fired event in place, letting
  periodic timers run without allocating a fresh ``Event`` per tick.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.metrics.core import MetricsRegistry
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "PURGE_THRESHOLD",
    "WHEEL_GRANULARITY",
    "WHEEL_SLOTS",
    "default_backend",
]

#: minimum number of dead (cancelled-but-queued) entries before the queue is
#: compacted; below this the cost of a rebuild outweighs the bloat
PURGE_THRESHOLD = 64

#: wheel slot width in simulated seconds. A power of two, so ``time / g`` is
#: an exact float scaling and slot binning can never reorder two events.
WHEEL_GRANULARITY = 1.0 / 64.0

#: number of wheel slots (power of two). Horizon = GRANULARITY * SLOTS = 64 s
#: of simulated time; anything scheduled further out takes the overflow heap.
WHEEL_SLOTS = 4096

#: a queued event: (time, seq, event), or (time, seq, None, fn, args) for one
#: filed by :meth:`Simulator.post` — seq is unique, so tuple comparison is
#: total and never reaches the event or the callback
_Entry = Tuple[Any, ...]

_INF = float("inf")


def default_backend() -> str:
    """The event-queue configuration of a ``Simulator()`` built without
    ``backend=``: ``"wheel"``, unless ``GULFSTREAM_SIM_BACKEND`` says
    otherwise. That variable is a read-only test seam (the equivalence
    suites run whole farms on either configuration through it); nothing in
    the program writes it and, the two being observationally identical, it
    cannot change a result.

    An unknown non-empty environment value is an error, not a silent
    fallback — a typo like ``GULFSTREAM_SIM_BACKEND=whee`` would
    otherwise invisibly change which code path a benchmark measures.
    """
    env = os.environ.get("GULFSTREAM_SIM_BACKEND", "").strip().lower()
    if not env:
        return "wheel"
    if env in ("heap", "wheel"):
        return env
    raise ValueError(
        f"GULFSTREAM_SIM_BACKEND={env!r} is not a valid backend (want 'heap' or 'wheel')"
    )


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule`.

    Instances are single-shot: once fired or cancelled they stay inert,
    unless the owning simulator re-arms them via
    :meth:`Simulator.reschedule` (the periodic-timer fast path).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        #: owning simulator, so ``cancel`` can keep the live/dead counters exact
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            sim._dead += 1
            sim.events_cancelled += 1

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__qualname__', self.fn)}, {state})"


def _bad_time(what: str, value: float) -> SimulationError:
    return SimulationError(f"invalid {what} {value!r}: in the past, NaN or infinite")


class Simulator:
    """Discrete-event loop with a shared clock, trace, and RNG registry.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`. Two
        simulators built with the same seed and the same scenario replay the
        exact same history.
    trace:
        Optional pre-built trace (e.g. with category filters); a fresh
        all-enabled :class:`~repro.sim.trace.Trace` is created otherwise.
    metrics:
        Optional pre-built :class:`~repro.metrics.core.MetricsRegistry`;
        a fresh one clocked on this simulator's ``now`` is created
        otherwise. The engine registers a pull-collector for its own
        counters (events dispatched/cancelled, queue depth), so the hot
        loop never touches a metric instrument.
    backend:
        Event-queue configuration: ``"wheel"`` (the timer wheel) or
        ``"heap"`` (the same queue with one slot that never advances, so
        every entry sits in one binary heap). ``None`` resolves through
        :func:`default_backend` (the ``GULFSTREAM_SIM_BACKEND`` environment
        variable, else the wheel). Both replay byte-identical histories;
        the choice is purely a performance trade.

    A run is one ``Simulator``: every scenario, however large the farm,
    steps one queue in this process.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.now: float = 0.0
        self.backend = backend if backend is not None else default_backend()
        if self.backend == "wheel":
            self._inv_g, self._nslots = 1.0 / WHEEL_GRANULARITY, WHEEL_SLOTS
        elif self.backend == "heap":
            # every time bins to tick 0 == the cursor: all entries are inflow
            self._inv_g, self._nslots = 0.0, 1
        else:
            raise ValueError(
                f"unknown event-queue backend {self.backend!r} (want 'heap' or 'wheel')"
            )
        # the queue, in four tiers ordered by due time: the current tier — a
        # sorted ``_run`` (consumed up to ``_run_i``) merged with the
        # ``_inflow`` heap of entries filed at or behind the cursor after
        # its slot was poured —, the wheel's ``_slots`` (one per tick, an
        # append each), and the ``_overflow`` heap past the horizon. Every
        # tick <= ``_cur_tick`` has been poured into the current tier.
        self._mask = self._nslots - 1
        self._slots: List[List[_Entry]] = [[] for _ in range(self._nslots)]
        self._cur_tick = 0
        self._run: List[_Entry] = []
        self._run_i = 0
        self._inflow: List[_Entry] = []
        self._overflow: List[_Entry] = []
        #: entries resident in slot lists (live + dead)
        self._wheel_count = 0
        #: cancelled entries still resident in the queue (lazy-purge state)
        self._dead = 0
        self._seq: int = 0
        #: ``seq`` of the event being fired; ``inf`` between runs, when every
        #: event due by ``now`` has fired. ``(now, firing_seq)`` is the key a
        #: :meth:`reserve_seq` slot compares against to tell whether its
        #: event would already have run.
        self.firing_seq: float = _INF
        #: bumped whenever work is parked for a consumer to catch up on later
        #: (a segment's multicast record): a consumer that kept the value it
        #: last caught up at skips the catch-up while this has not moved
        self.deferred: int = 0
        self._running = False
        self._stopped = False
        #: events scheduled and neither fired nor cancelled (O(1) pending_count)
        self._live: int = 0
        #: dead count the queue-growing paths wait for before looking again:
        #: a compaction needs ``dead`` above both the threshold and half the
        #: resident entries, so a failed check parks this at half of them
        self._purge_gate: int = PURGE_THRESHOLD
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Trace()
        #: number of events executed so far (monotonic; updated when
        #: :meth:`run` returns, not per event — read it between runs)
        self.events_executed: int = 0
        #: number of events cancelled so far (monotonic, exact)
        self.events_cancelled: int = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock=lambda: self.now)
        self._m_dispatched = self.metrics.counter("sim.events.dispatched")
        self._m_cancelled = self.metrics.counter("sim.events.cancelled")
        self._m_depth = self.metrics.gauge("sim.queue.depth")
        self._m_dead = self.metrics.gauge("sim.queue.dead")
        self.metrics.register_collector(self._collect_metrics)

    @property
    def _queue(self) -> List[_Entry]:
        """Every queued entry, cancelled ones included, as a fresh list
        (introspection only; hot paths never touch this)."""
        flat = self._run[self._run_i :] + self._inflow + self._overflow
        for slot in self._slots:
            flat.extend(slot)
        return flat

    def _resident(self) -> int:
        """Entries in the queue, live and dead."""
        return (
            len(self._run) - self._run_i
            + len(self._inflow)
            + self._wheel_count
            + len(self._overflow)
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN too
            raise _bad_time("delay", delay)
        time = self.now + delay
        try:
            tick = int(time * self._inv_g)
        except (OverflowError, ValueError):  # inf
            raise _bad_time("delay", delay) from None
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        offset = tick - self._cur_tick
        if offset <= 0:
            heappush(self._inflow, (time, seq, ev))
        elif offset < self._nslots:
            self._slots[tick & self._mask].append((time, seq, ev))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (time, seq, ev))
        self._live += 1
        if self._dead > self._purge_gate:
            self._maybe_purge()
        return ev

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now, like :meth:`schedule`,
        for a caller that will never cancel it.

        Nothing is returned and no :class:`Event` is made: the queue holds
        the bare entry ``(time, seq, None, fn, args)``, which takes its
        seq — so its same-instant FIFO place — exactly as ``schedule`` would
        have. It counts in :meth:`pending_count`, ``max_events`` and
        ``events_executed`` like any event, and cannot be cancelled or
        rescheduled.
        """
        if not delay >= 0:  # NaN too
            raise _bad_time("delay", delay)
        time = self.now + delay
        try:
            tick = int(time * self._inv_g)
        except (OverflowError, ValueError):  # inf
            raise _bad_time("delay", delay) from None
        seq = self._seq
        self._seq = seq + 1
        offset = tick - self._cur_tick
        if offset <= 0:
            heappush(self._inflow, (time, seq, None, fn, args))
        elif offset < self._nslots:
            self._slots[tick & self._mask].append((time, seq, None, fn, args))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (time, seq, None, fn, args))
        self._live += 1
        if self._dead > self._purge_gate:
            self._maybe_purge()

    def reserve_seq(self, n: int = 1) -> int:
        """Claim the next ``n`` sequence numbers without queueing an event
        and return the first: ``schedule_at(time, ..., seq=k)`` later yields
        the event ``schedule`` would have made now, same-instant FIFO
        position included. Seqs are only ever compared, so a block may keep
        slots nobody takes."""
        seq = self._seq
        self._seq = seq + n
        return seq

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any, seq: Optional[int] = None
    ) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``
        (``seq``: a number from :meth:`reserve_seq`; default a fresh one)."""
        if not time >= self.now:  # NaN too
            raise _bad_time("time", time)
        try:
            tick = int(time * self._inv_g)
        except (OverflowError, ValueError):  # inf
            raise _bad_time("time", time) from None
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        offset = tick - self._cur_tick
        if offset <= 0:
            heappush(self._inflow, (time, seq, ev))
        elif offset < self._nslots:
            self._slots[tick & self._mask].append((time, seq, ev))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (time, seq, ev))
        self._live += 1
        if self._dead > self._purge_gate:
            self._maybe_purge()
        return ev

    def reschedule(self, ev: Event, delay: float) -> Event:
        """Re-arm a *fired* event ``delay`` seconds from now, in place.

        This is the periodic-timer fast path: the :class:`Event` object (and
        its ``fn``/``args``) is reused instead of allocating one per tick.
        Only an event that has fired and was not cancelled may be re-armed;
        anything else is a bug in the caller and raises
        :class:`SimulationError`. Returns the same event.
        """
        if ev.cancelled or not ev.fired:
            raise SimulationError(
                f"reschedule() needs a fired, uncancelled event, got {ev!r}"
            )
        if not delay >= 0:  # NaN too
            raise _bad_time("delay", delay)
        return self._rearm(ev, delay)

    def _rearm(self, ev: Event, delay: float) -> Event:
        """:meth:`reschedule` for a caller that knows ``ev`` fired, was not
        cancelled and ``delay`` is not negative (``Timer``'s every tick)."""
        time = self.now + delay
        try:
            tick = int(time * self._inv_g)
        except (OverflowError, ValueError):  # inf
            raise _bad_time("delay", delay) from None
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        ev.fired = False
        offset = tick - self._cur_tick
        if offset <= 0:
            heappush(self._inflow, (time, seq, ev))
        elif offset < self._nslots:
            self._slots[tick & self._mask].append((time, seq, ev))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (time, seq, ev))
        self._live += 1
        if self._dead > self._purge_gate:
            self._maybe_purge()
        return ev

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is advanced
            to exactly ``until``. ``None`` runs until the queue drains.
        max_events:
            Safety valve for runaway protocols: the maximum number of
            *fired* events this call may execute. Skipping a cancelled
            event is free and does not count. The run raises
            :class:`SimulationError` as soon as one more live event would
            fire beyond the budget; draining the queue in exactly
            ``max_events`` firings is fine.

        Returns
        -------
        float
            The simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        try:
            self._consume(
                _INF if until is None else until, _INF if max_events is None else max_events
            )
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            if not self._stopped:
                self.firing_seq = _INF
            self._maybe_purge()
        return self.now

    def _consume(self, until: float, budget: float) -> Optional[float]:
        """Fire live events due by ``until``, at most ``budget`` of them;
        return the time of the first live event left queued (``None`` when
        the queue drained or the run was stopped).

        The loop owns the current tier while it runs: callbacks may file
        entries (a same-tick one joins ``_inflow``, the list held here),
        cancel, and compact the queue — which leaves the run list alone.
        """
        inflow = self._inflow
        run = self._run
        i = self._run_i
        n = len(run)
        executed = 0
        try:
            while True:
                if i < n:
                    entry = run[i]
                    if inflow and inflow[0] < entry:
                        entry = heappop(inflow)
                    else:
                        i += 1
                elif inflow:
                    entry = heappop(inflow)
                elif self._wheel_count or self._overflow:
                    run = self._advance()
                    i = 0
                    n = len(run)
                    continue
                else:
                    return None
                ev = entry[2]
                if ev is not None and ev.cancelled:
                    self._dead -= 1
                    continue
                when = entry[0]
                if when > until or executed >= budget:
                    # not this run's: back where it came from
                    if i and run[i - 1] is entry:
                        i -= 1
                    else:
                        heappush(inflow, entry)
                    if when > until:
                        return when
                    raise SimulationError(f"exceeded max_events={budget} (runaway protocol?)")
                self._run_i = i
                self.now = when
                self.firing_seq = entry[1]
                executed += 1
                if ev is None:  # posted: nobody holds a handle to flag
                    entry[3](*entry[4])
                else:
                    ev.fired = True
                    ev.fn(*ev.args)
                if self._stopped:
                    return None
        finally:
            self._run_i = i
            self._live -= executed
            self.events_executed += executed

    def _advance(self) -> List[_Entry]:
        """Move the cursor to the next tick that can hold work and pour it,
        sorted, into a fresh run, which is returned. Called only with the
        current tier empty. The slot's list itself becomes the run, dead
        entries included: the loop drops them as they surface."""
        due: List[_Entry] = []
        if self._wheel_count:
            self._cur_tick += 1
            index = self._cur_tick & self._mask
            slot = self._slots[index]
            if slot:
                self._wheel_count -= len(slot)
                self._slots[index] = []
                due = slot
        else:
            # the wheel is empty: jump straight to the overflow's next tick
            tick = int(self._overflow[0][0] * self._inv_g)
            if tick > self._cur_tick:
                self._cur_tick = tick
        overflow = self._overflow
        cur = self._cur_tick
        inv_g = self._inv_g
        while overflow and int(overflow[0][0] * inv_g) <= cur:
            entry = heappop(overflow)
            ev = entry[2]
            if ev is not None and ev.cancelled:
                self._dead -= 1
            else:
                due.append(entry)
        due.sort()
        self._run = due
        self._run_i = 0
        return due

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # queue maintenance & inspection
    # ------------------------------------------------------------------
    def _maybe_purge(self) -> None:
        """Compact the queue when dead entries dominate it.

        One centralized check — every path that grows the queue runs it, and
        so do ``run`` and ``next_event_time``, so a cancel-heavy workload
        that only re-arms timers (no fresh ``schedule`` calls) cannot bloat
        the queue without bound.
        """
        gate = PURGE_THRESHOLD
        if self._dead > PURGE_THRESHOLD:
            resident = self._resident()
            if self._dead * 2 > resident:
                self._purge()
                gate += self._dead  # what the run still holds
            else:
                gate = resident // 2
        self._purge_gate = gate

    def _purge(self) -> None:
        """Drop every cancelled entry from the inflow, the slots and the
        overflow, in place. The run is left to the loop consuming it (it
        drops its dead entries as they surface); ``_dead`` counts those.
        A posted entry (no event) is never dead."""
        for heap in (self._inflow, self._overflow):
            heap[:] = [e for e in heap if e[2] is None or not e[2].cancelled]
            heapify(heap)
        count = 0
        for slot in self._slots:
            if slot:
                slot[:] = [e for e in slot if e[2] is None or not e[2].cancelled]
                count += len(slot)
        self._wheel_count = count
        self._dead = sum(
            1 for e in self._run[self._run_i :] if e[2] is not None and e[2].cancelled
        )

    def _collect_metrics(self) -> None:
        """Pull-collector: copy the engine tallies into the registry.

        ``events_executed`` is batch-updated when :meth:`run` returns, so
        a sample taken from *inside* a run (e.g. by a
        :class:`~repro.metrics.sampling.PeriodicSampler`) reports the
        count as of the run's start — exact again as soon as it ends.
        """
        self._m_dispatched.set_total(self.events_executed)
        self._m_cancelled.set_total(self.events_cancelled)
        self._m_depth.set(self._live)
        self._m_dead.set(self._dead)

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued. O(1)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if idle. Not from
        inside :meth:`run`, whose loop owns the queue's current tier."""
        if self._running:
            raise SimulationError("next_event_time() called from inside run()")
        t = self._consume(-_INF, 0)
        self._maybe_purge()
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_count()})"
