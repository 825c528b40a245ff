"""Timer helpers on top of the raw event queue.

Protocol code wants periodic, cancellable, optionally jittered timers
(heartbeats, beacon intervals) rather than raw one-shot events. ``Timer``
provides exactly that.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.engine import Event, Simulator

__all__ = ["Timer"]


class Timer:
    """A periodic timer.

    Fires ``fn(*args)`` every ``interval`` seconds, optionally after an
    ``initial_delay``, optionally with uniform jitter of ±``jitter`` seconds
    per period (never firing early relative to the previous tick). Stops
    cleanly on :meth:`cancel`, including from within its own callback.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if jitter < 0 or jitter >= interval:
            raise ValueError("jitter must satisfy 0 <= jitter < interval")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.jitter = jitter
        self.rng = rng
        self.fires = 0
        self._cancelled = False
        # prefetched unit draws for the jitter path, unboxed: one vectorised
        # RNG call per 64 ticks instead of a scalar numpy call per tick
        self._jbuf = array("d")
        self._jbuf_i = 0
        first = interval if initial_delay is None else initial_delay
        self._event: Optional[Event] = sim.schedule(self._jittered(first), self._fire)

    def _jittered(self, base: float) -> float:
        if self.jitter == 0.0:
            return base
        assert self.rng is not None
        i = self._jbuf_i
        buf = self._jbuf
        if i >= len(buf):
            buf = self._jbuf = array("d", self.rng.random(64).tobytes())
            i = 0
        self._jbuf_i = i + 1
        # uniform(-j, +j) = -j + 2j * next_double(): same stream consumption
        delay = base + self.jitter * (2.0 * buf[i] - 1.0)
        return delay if delay > 0.0 else 0.0

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fires += 1
        self.fn(*self.args)
        if self._cancelled:
            return
        delay = self.interval
        if self.jitter != 0.0:
            i = self._jbuf_i  # _jittered(interval), inline: once per tick of every timer
            if i >= len(self._jbuf):
                self._jbuf = array("d", self.rng.random(64).tobytes())  # type: ignore[union-attr]
                i = 0
            self._jbuf_i = i + 1
            delay += self.jitter * (2.0 * self._jbuf[i] - 1.0)
            delay = delay if delay > 0.0 else 0.0
        ev = self._event
        if ev is not None and ev.fired and not ev.cancelled:
            # hot path: re-arm the just-fired event in place instead of
            # allocating a fresh Event per tick (heartbeat workloads run
            # hundreds of timers for simulated hours); the checks
            # ``reschedule`` makes were just made
            self._event = self.sim._rearm(ev, delay)
        else:
            self._event = self.sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Stop the timer; safe from inside the callback and idempotent."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        """True while the timer will keep firing."""
        return not self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer(interval={self.interval}, fires={self.fires}, active={self.active})"

