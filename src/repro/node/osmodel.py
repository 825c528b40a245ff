"""Per-node operating-system / scheduling model.

Figure 5 of the paper shows discovery completing δ ≈ 5–6 s later than the
configured ``T_beacon + T_amg + T_gsc``. Section 4.1 decomposes δ into:

1. *Beacon-start stagger* — "the beaconing timer is not set for between 1
   and 2 seconds after beaconing begins on the first adapter", because the
   daemon processes other start-up events first.
2. *Two-phase-commit cost* — membership commits use point-to-point messages,
   each of which costs processing time.
3. *Thread switching / swap-out* — "No special effort was made to give
   GulfStream priority in execution."

:class:`OSModel` reproduces all three: a per-daemon start-up stagger drawn
once, a serialized per-event handling delay (the daemon is effectively
single-threaded, so handling queues behind in-flight work), and a coarser
*phase lag* drawn at major protocol transitions standing in for swap-out and
thread-pool churn. Every distribution is a tunable in :class:`OSParams`, and
``OSParams.ideal()`` turns the whole model off for protocol-logic tests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.nic import NIC

__all__ = ["OSModel", "OSParams"]

_INF = float("inf")


@dataclass(frozen=True)
class OSParams:
    """Delay distributions (all uniform ranges, in seconds)."""

    #: daemon start offset after simulated boot
    boot_delay: Tuple[float, float] = (0.0, 0.5)
    #: one-time lateness of the beacon-phase timer (paper: 1–2 s)
    beacon_stagger: Tuple[float, float] = (1.0, 2.0)
    #: serialized per-event handling cost (message or timer dispatch)
    proc_delay: Tuple[float, float] = (0.001, 0.004)
    #: lag at major phase transitions (thread switching / swap-out stand-in);
    #: calibrated so the end-to-end discovery overhead δ lands in the 5-6 s
    #: band the paper measured on its Java prototype (§4.1, Figure 5)
    phase_lag: Tuple[float, float] = (0.95, 1.35)

    @staticmethod
    def ideal() -> "OSParams":
        """A zero-overhead OS — for tests that exercise pure protocol logic."""
        return OSParams(
            boot_delay=(0.0, 0.0),
            beacon_stagger=(0.0, 0.0),
            proc_delay=(0.0, 0.0),
            phase_lag=(0.0, 0.0),
        )

    @staticmethod
    def fast() -> "OSParams":
        """Small but non-zero overheads — for timing-sensitive tests."""
        return OSParams(
            boot_delay=(0.0, 0.05),
            beacon_stagger=(0.05, 0.1),
            proc_delay=(0.0005, 0.001),
            phase_lag=(0.01, 0.05),
        )


class OSModel:
    """Delay oracle for one host.

    All draws come from the host's dedicated RNG stream, so adding a node to
    a scenario never perturbs another node's delays.

    ``nics`` are the host's adapters (its own list, so adapters added later
    are seen). A multicast their segment logged as one record is billed
    here, by :meth:`catch_up`, before this model draws or charges anything
    else — so every draw is taken in the order the deliveries happened.
    """

    #: unit draws prefetched per vectorised RNG call (one numpy call
    #: amortised over this many events)
    BUFFER = 256

    def __init__(
        self, sim: Simulator, host_name: str, params: OSParams, nics: Sequence["NIC"] = ()
    ) -> None:
        self.sim = sim
        self.params = params
        self.rng = sim.rng.stream(f"os/{host_name}")
        self.nics = nics
        # the daemon is modelled single-threaded: event handling serializes
        self._busy_until = 0.0
        # prefetched uniform [0,1) draws, unboxed; every simulated event
        # costs a proc_delay draw, so scalar numpy calls would dominate
        self._buf = array("d")
        self._buf_i = 0
        # ``sim.deferred`` at the last full catch-up: while it has not moved,
        # no segment logged a record and there is nothing to bill
        self._seen = sim.deferred

    # ------------------------------------------------------------------
    # draws
    # ------------------------------------------------------------------
    def _draw(self, lohi: Tuple[float, float]) -> float:
        self.catch_up()
        lo, hi = lohi
        if hi <= lo:
            return lo
        i = self._buf_i
        buf = self._buf
        if i >= len(buf):
            # uniform(lo, hi) is lo + (hi-lo) * next_double(), so scaling a
            # prefetched unit draw consumes the stream identically to the
            # scalar call — the replayed history is unchanged
            buf = self._buf = self._refill()
            i = 0
        self._buf_i = i + 1
        return lo + (hi - lo) * buf[i]

    def _refill(self) -> array:
        """The next ``BUFFER`` unit draws, 8 bytes each."""
        return array("d", self.rng.random(self.BUFFER).tobytes())

    def boot_delay(self) -> float:
        """When the daemon comes up after the node does."""
        return self._draw(self.params.boot_delay)

    def beacon_stagger(self) -> float:
        """Lateness of the beacon-phase-end timer (drawn once per start)."""
        return self._draw(self.params.beacon_stagger)

    def phase_lag(self) -> float:
        """Extra delay at a major protocol transition."""
        return self._draw(self.params.phase_lag)

    # ------------------------------------------------------------------
    # serialized event handling
    # ------------------------------------------------------------------
    def charge(self, before: Optional[float] = None) -> float:
        """Bill one event's handling; returns the delay until it completes.

        Handling costs a ``proc_delay`` draw and queues behind any handling
        already in flight, modelling a single-threaded daemon under load.
        ``before``: the seq the handling event will take, when it was
        reserved ahead (a multicast's slot); records ordered after it are
        left for later.
        """
        sim = self.sim
        if before is not None or self._seen != sim.deferred:
            self.catch_up(before)
        now = sim.now
        busy = self._busy_until
        delay, hi = self.params.proc_delay
        if hi > delay:
            i = self._buf_i  # _draw(proc_delay), inline: once per received frame
            if i >= len(self._buf):
                self._buf = self._refill()
                i = 0
            self._buf_i = i + 1
            delay += (hi - delay) * self._buf[i]
        finish = (busy if busy > now else now) + delay
        self._busy_until = finish
        return finish - now

    def stall(self, until: float) -> None:
        """Keep the daemon busy until ``until`` (a CPU spike): handling
        billed from now on queues behind it."""
        self.catch_up()
        if until > self._busy_until:
            self._busy_until = until

    def busy_until(self) -> float:
        """When the daemon will have handled everything delivered to this
        host so far, multicast records included: ``now`` or earlier when it
        is idle."""
        self.catch_up()
        return self._busy_until

    def catch_up(self, before: Optional[float] = None) -> None:
        """Bill every multicast record delivered to this host's adapters and
        not billed yet, in seq order — the order the deliveries happened.

        Each record costs what :meth:`charge` would have at its delivery
        instant ``when``: the next ``proc_delay`` draw, queued behind the
        busy chain, keyed ``(when + (finish - when), seq)``. Each adapter's
        receiver gets its entries in one call, as columns
        (``nic.sink.take(keys, seqs, payloads)``, :meth:`NIC.bind`).
        ``before`` stops at that seq (see :meth:`charge`).
        """
        if before is None:
            if self._seen == self.sim.deferred:
                return
            self._seen = self.sim.deferred
            before = _INF
        taken: List[tuple] = []
        takers: List["NIC"] = []
        for nic in self.nics:
            cursor = nic.cursor
            if (
                cursor is not None and cursor != nic.segment.logged
                and nic.segment.take(nic, len(takers), before, taken)
            ):
                takers.append(nic)
        if not taken:
            return
        if len(takers) > 1:
            taken.sort()  # seqs are unique: only the first field is compared
        keys = [array("d") for _ in takers]
        seqs = [array("q") for _ in takers]
        msgs: List[list] = [[] for _ in takers]
        lo, hi = self.params.proc_delay
        span = hi - lo
        busy = self._busy_until
        buf, i = self._buf, self._buf_i
        for seq, when, msg, who in taken:
            delay = lo
            if hi > lo:  # charge(), inline
                if i >= len(buf):
                    buf = self._buf = self._refill()
                    i = 0
                delay += span * buf[i]
                i += 1
            busy = (busy if busy > when else when) + delay
            keys[who].append(when + (busy - when))
            seqs[who].append(seq)
            msgs[who].append(msg)
        self._busy_until = busy
        self._buf_i = i
        for nic, k, q, m in zip(takers, keys, seqs, msgs):
            nic.sink.take(k, q, m)

    def handle(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after the daemon gets CPU for it (:meth:`charge`)."""
        return self.sim.schedule(self.charge(), fn, *args)
