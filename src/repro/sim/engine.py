"""The discrete-event engine.

A :class:`Simulator` owns a queue of :class:`Event` objects keyed by
``(time, priority, sequence)``. Events scheduled for the same instant fire in
the order they were scheduled (FIFO), which keeps protocol traces stable and
debuggable. Cancellation is O(1): the event is flagged and skipped when it
surfaces.

The engine is deliberately tiny and allocation-light — large farm sweeps
schedule millions of events, and the paper's experiments (Figure 5) need
2..55-node farms with three adapters per node to run in well under a second
each so the benchmark harness can sweep them.

Two interchangeable queue backends implement the same contract (see
docs/PROTOCOL.md, "Performance"):

* ``"heap"`` — a single binary heap of ``(time, priority, seq, event)``
  tuples. Every operation is O(log n) in the total pending count; sifting
  compares at C speed and never calls back into Python, because ``seq`` is
  unique.
* ``"wheel"`` (the default) — a timer wheel: near-term events go into O(1)
  wheel slots (one slot per :data:`WHEEL_GRANULARITY` seconds of simulated
  time, :data:`WHEEL_SLOTS` slots of horizon), each slot is sorted once when
  the clock reaches it, and far-future events overflow into a small heap
  tier. Periodic near-term timers — the overwhelming majority at farm scale
  (heartbeats, beacons, check timers) — never pay per-op costs that grow
  with the total pending count.

Both backends produce *identical execution histories* for any program: the
golden-trace equivalence suite
(`tests/integration/test_backend_equivalence.py`) pins that. Selection is
per-run: ``Simulator(backend="heap")``.

Performance invariants (relied on by the benchmarks, documented in
docs/PROTOCOL.md):

* :meth:`Simulator.pending_count` is O(1), backed by a live-event counter
  maintained by ``schedule``/``cancel``/``run``;
* cancelled events are purged *lazily*: they are skipped when they surface,
  and when more than half the queue (and at least :data:`PURGE_THRESHOLD`
  entries) is dead the whole queue is compacted, so long-lived piles of
  dead heartbeat timers do not bloat every queue operation. The compaction
  check runs on every path that grows the queue — ``schedule``,
  ``schedule_at``, ``reschedule`` — once enough entries have died since
  the last check for it to succeed (one integer compare until then), plus
  unconditionally in ``run`` and ``next_event_time``, so cancel-heavy
  workloads that only re-arm timers stay bounded too;
* :meth:`Simulator.reschedule` re-arms a fired event in place, letting
  periodic timers run without allocating a fresh ``Event`` per tick.
"""

from __future__ import annotations

import heapq
import os
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

#: a queued event: (time, priority, seq, event) — seq is unique, so tuple
#: comparison is total and never falls through to Event.__lt__
_Entry = Tuple[float, int, int, "Event"]


def default_backend() -> str:
    """The event-queue backend of a ``Simulator()`` built without
    ``backend=``: ``"wheel"``, unless ``GULFSTREAM_SIM_BACKEND`` says
    otherwise. That variable is a read-only test seam (the equivalence
    suites run whole farms on either queue through it); nothing in the
    program writes it and, the backends being observationally identical,
    it cannot change a result.

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

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "fired", "sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        #: owning simulator; set by ``schedule`` so ``cancel`` can keep the
        #: live/dead counters exact
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            sim._backend.dead += 1
            sim.events_cancelled += 1

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__qualname__', self.fn)}, {state})"


class _QueueBackend:
    """Event-queue contract shared by the heap and wheel backends.

    The three hot operations are ``push`` (enqueue one entry), ``peek_time``
    (time of the earliest *live* entry, physically dropping any cancelled
    entries it has to step over, or ``None`` when empty), and ``pop`` (remove
    and return that earliest live entry; only valid immediately after a
    non-``None`` ``peek_time``). ``dead`` counts cancelled entries still
    resident anywhere in the structure; ``purge`` drops them all.
    """

    __slots__ = ()
    name = "?"
    dead: int

    def push(self, entry: _Entry) -> None:
        raise NotImplementedError

    def peek_time(self) -> Optional[float]:
        raise NotImplementedError

    def pop(self) -> _Entry:
        raise NotImplementedError

    def purge(self) -> None:
        raise NotImplementedError

    def entries(self) -> List[_Entry]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _HeapBackend(_QueueBackend):
    """One global binary heap — the original engine structure."""

    __slots__ = ("heap", "dead")
    name = "heap"

    def __init__(self) -> None:
        self.heap: List[_Entry] = []
        self.dead = 0

    def push(self, entry: _Entry) -> None:
        heapq.heappush(self.heap, entry)

    def peek_time(self) -> Optional[float]:
        heap = self.heap
        while heap:
            if heap[0][3].cancelled:
                heapq.heappop(heap)
                self.dead -= 1
            else:
                return heap[0][0]
        return None

    def pop(self) -> _Entry:
        return heapq.heappop(self.heap)

    def purge(self) -> None:
        heap = self.heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self.dead = 0

    def entries(self) -> List[_Entry]:
        return self.heap

    def __len__(self) -> int:
        return len(self.heap)


class _WheelBackend(_QueueBackend):
    """Timer wheel with an overflow heap for far-future events.

    Three tiers, ordered by due time:

    * the *current* tier — entries already due at or before the wheel
      cursor: a sorted run (``run``/``run_i``, one ``list.sort`` per slot
      when the cursor reaches it) merged on the fly with a small ``inflow``
      heap of entries scheduled *at or behind* the cursor after its slot was
      poured (zero-delay follow-ups, same-slot delivery latencies);
    * the wheel itself — ``nslots`` lists, one per ``granularity`` seconds;
      an append is O(1) and entries are looked at exactly once, when the
      cursor reaches their slot;
    * the ``overflow`` heap — anything due beyond the wheel horizon
      (aperiodic far-future work: fault schedules, long timeouts). Entries
      pour into the current tier when the cursor reaches their tick.

    Correctness leans on two facts: ``granularity`` is a power of two, so
    ``time * inv_g`` is exact and slot binning is monotone in time (two
    events can never swap slots); and every tier orders entries by the full
    ``(time, priority, seq)`` tuple, so same-instant FIFO survives slot
    boundaries. The cursor (``cur_tick``) only moves forward, during
    ``peek_time`` — moving it is pure bookkeeping, so peeking past idle
    stretches never perturbs execution.
    """

    __slots__ = (
        "granularity",
        "inv_g",
        "nslots",
        "mask",
        "slots",
        "cur_tick",
        "run",
        "run_i",
        "inflow",
        "overflow",
        "wheel_count",
        "dead",
    )
    name = "wheel"

    def __init__(
        self, granularity: float = WHEEL_GRANULARITY, nslots: int = WHEEL_SLOTS
    ) -> None:
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity!r}")
        if nslots < 2 or nslots & (nslots - 1):
            raise ValueError(f"nslots must be a power of two >= 2, got {nslots!r}")
        self.granularity = granularity
        self.inv_g = 1.0 / granularity
        self.nslots = nslots
        self.mask = nslots - 1
        self.slots: List[List[_Entry]] = [[] for _ in range(nslots)]
        #: every tick <= cur_tick has been poured into the current tier
        self.cur_tick = 0
        self.run: List[_Entry] = []
        self.run_i = 0
        self.inflow: List[_Entry] = []
        self.overflow: List[_Entry] = []
        #: entries resident in slot lists (live + dead)
        self.wheel_count = 0
        self.dead = 0

    def push(self, entry: _Entry) -> None:
        tick = int(entry[0] * self.inv_g)
        offset = tick - self.cur_tick
        if offset <= 0:
            heapq.heappush(self.inflow, entry)
        elif offset < self.nslots:
            self.slots[tick & self.mask].append(entry)
            self.wheel_count += 1
        else:
            heapq.heappush(self.overflow, entry)

    def peek_time(self) -> Optional[float]:
        heappop = heapq.heappop
        while True:
            run = self.run
            i = self.run_i
            n = len(run)
            while i < n and run[i][3].cancelled:
                i += 1
                self.dead -= 1
            self.run_i = i
            inflow = self.inflow
            while inflow and inflow[0][3].cancelled:
                heappop(inflow)
                self.dead -= 1
            if i < n:
                if inflow and inflow[0] < run[i]:
                    return inflow[0][0]
                return run[i][0]
            if n:
                # run fully consumed: release the fired entries' tuples
                self.run = []
                self.run_i = 0
            if inflow:
                return inflow[0][0]
            if self.wheel_count == 0 and not self.overflow:
                return None
            self._advance()

    def pop(self) -> _Entry:
        # only valid right after peek_time() returned non-None: the fronts
        # of both current-tier structures are live
        run = self.run
        i = self.run_i
        inflow = self.inflow
        if i < len(run):
            entry = run[i]
            if inflow and inflow[0] < entry:
                return heapq.heappop(inflow)
            self.run_i = i + 1
            return entry
        return heapq.heappop(inflow)

    def _advance(self) -> None:
        """Move the cursor to the next tick that can hold work and pour it
        into the current tier. Called only with the current tier empty."""
        due: List[_Entry] = []
        if self.wheel_count:
            self.cur_tick += 1
            slot = self.slots[self.cur_tick & self.mask]
            if slot:
                self.wheel_count -= len(slot)
                for entry in slot:
                    if entry[3].cancelled:
                        self.dead -= 1
                    else:
                        due.append(entry)
                slot.clear()
        else:
            # the wheel is empty: jump straight to the overflow's next tick
            # (peek_time guarantees the overflow is non-empty here)
            tick = int(self.overflow[0][0] * self.inv_g)
            if tick > self.cur_tick:
                self.cur_tick = tick
        overflow = self.overflow
        cur = self.cur_tick
        inv_g = self.inv_g
        while overflow and int(overflow[0][0] * inv_g) <= cur:
            entry = heapq.heappop(overflow)
            if entry[3].cancelled:
                self.dead -= 1
            else:
                due.append(entry)
        if due:
            due.sort()
            self.run = due
            self.run_i = 0

    def purge(self) -> None:
        """Slot reclamation: drop every cancelled entry from every tier."""
        self.run = [e for e in self.run[self.run_i :] if not e[3].cancelled]
        self.run_i = 0
        self.inflow = [e for e in self.inflow if not e[3].cancelled]
        heapq.heapify(self.inflow)
        self.overflow = [e for e in self.overflow if not e[3].cancelled]
        heapq.heapify(self.overflow)
        count = 0
        for slot in self.slots:
            if slot:
                slot[:] = [e for e in slot if not e[3].cancelled]
                count += len(slot)
        self.wheel_count = count
        self.dead = 0

    def entries(self) -> List[_Entry]:
        flat = self.run[self.run_i :] + self.inflow + self.overflow
        for slot in self.slots:
            flat.extend(slot)
        return flat

    def __len__(self) -> int:
        return (
            (len(self.run) - self.run_i)
            + len(self.inflow)
            + self.wheel_count
            + len(self.overflow)
        )


def _make_backend(name: str) -> _QueueBackend:
    if name == "heap":
        return _HeapBackend()
    if name == "wheel":
        return _WheelBackend()
    raise ValueError(f"unknown event-queue backend {name!r} (want 'heap' or 'wheel')")


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
        Event-queue backend: ``"wheel"`` (timer wheel + overflow heap) or
        ``"heap"`` (single global heap). ``None`` resolves through
        :func:`default_backend` (the ``GULFSTREAM_SIM_BACKEND`` environment
        variable, else the wheel). Both backends replay byte-identical
        histories; the choice is purely a performance trade.
    shards:
        Accepted for API symmetry with the scenario layer: a single
        ``Simulator`` is always one shard. ``None`` or ``1`` are the only
        valid values — sharded execution partitions a run across *several*
        simulators and lives in :mod:`repro.sim.shard` (see
        ``Scenario(shards=...)`` / ``run_sharded``).
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Trace] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> None:
        if shards not in (None, 1):
            raise SimulationError(
                f"Simulator(shards={shards!r}): a Simulator is always a single shard; "
                "use Scenario(shards=...) or repro.sim.shard.run_sharded for "
                "multi-shard execution"
            )
        self.now: float = 0.0
        self.backend = backend if backend is not None else default_backend()
        self._backend = _make_backend(self.backend)
        self._seq: int = 0
        #: ``seq`` of the event being fired; ``inf`` between runs, when every
        #: event due by ``now`` has fired. ``(now, firing_seq)`` is the key a
        #: :meth:`reserve_seq` slot compares against to tell whether its
        #: event would already have run.
        self.firing_seq: float = float("inf")
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
        """Every queued entry, cancelled ones included (introspection only).

        The heap backend exposes its live heap list; the wheel flattens its
        tiers into a fresh list per access. Hot paths never touch this.
        """
        return self._backend.entries()

    @property
    def _dead(self) -> int:
        """Cancelled entries still resident in the queue (lazy-purge state)."""
        return self._backend.dead

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any, priority: int = 0
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        ev.sim = self
        self._backend.push((time, priority, seq, ev))
        self._live += 1
        if self._backend.dead > self._purge_gate:
            self._maybe_purge()
        return ev

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
        self, time: float, fn: Callable[..., Any], *args: Any, priority: int = 0,
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``
        (``seq``: a number from :meth:`reserve_seq`; default a fresh one)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self.now!r}"
            )
        if seq is None:
            seq = self.reserve_seq()
        ev = Event(time, priority, seq, fn, args)
        ev.sim = self
        self._backend.push((time, priority, seq, ev))
        self._live += 1
        if self._backend.dead > self._purge_gate:
            self._maybe_purge()
        return ev

    def reschedule(self, ev: Event, delay: float, priority: Optional[int] = None) -> Event:
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
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev.time = time
        ev.seq = seq
        if priority is not None:
            ev.priority = priority
        ev.fired = False
        self._backend.push((time, ev.priority, seq, ev))
        self._live += 1
        if self._backend.dead > self._purge_gate:
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
        executed = 0
        # hot loop: hoist the backend's bound methods; peek_time physically
        # drops any cancelled entries it steps over, so a live entry is
        # always at the front when pop runs
        backend = self._backend
        peek = backend.peek_time
        pop = backend.pop
        try:
            while True:
                when = peek()
                if when is None:
                    break
                if until is not None and when > until:
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway protocol?)"
                    )
                _, _, self.firing_seq, ev = pop()
                self.now = when
                ev.fired = True
                executed += 1
                ev.fn(*ev.args)
                if self._stopped:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            if not self._stopped:
                self.firing_seq = float("inf")
            self._live -= executed
            self.events_executed += executed
            self._maybe_purge()
        return self.now

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
        backend = self._backend
        gate = PURGE_THRESHOLD
        if backend.dead > PURGE_THRESHOLD:
            resident = len(backend)
            if backend.dead * 2 > resident:
                backend.purge()
            else:
                gate = resident // 2
        self._purge_gate = gate

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
        self._m_dead.set(self._backend.dead)

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued. O(1)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if idle."""
        t = self._backend.peek_time()
        self._maybe_purge()
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_count()})"
