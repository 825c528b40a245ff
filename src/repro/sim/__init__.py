"""Discrete-event simulation kernel.

Every other subsystem in this reproduction runs on top of this kernel: the
network fabric schedules message deliveries, nodes schedule protocol timers,
and experiments read the shared clock. Time is a float in *simulated
seconds*; nothing in the library reads the wall clock, so every run is
exactly repeatable given a seed.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.engine.Event` — a cancellable scheduled callback.
* :class:`~repro.sim.process.Timer` — a cancellable periodic timer.
* :class:`~repro.sim.rng.RngRegistry` — named, reproducible RNG streams.
* :class:`~repro.sim.trace.Trace` — structured event trace and counters.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.process import Timer
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Event",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Timer",
    "Trace",
    "TraceRecord",
]
