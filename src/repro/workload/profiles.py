"""Deterministic rate profiles: diurnal modulation, sinusoids, flash crowds.

Profiles are pure functions of simulated time — no randomness — so they can
modulate a :class:`~repro.workload.generators.RequestStream` (as the
``profile`` callable) or stand alone as an offered-load model:
``DomainLoadModel(...).load`` is a ready-made ``load=`` signal for the
:class:`~repro.workload.autoscaler.Autoscaler` (the §1 flash-crowd
experiment).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "WORKLOAD_PROFILES",
    "DiurnalProfile",
    "DomainLoadModel",
    "SpikeSchedule",
]

#: profile shapes ``build_traffic_farm(profile=)`` accepts
WORKLOAD_PROFILES = ("diurnal", "flat", "flash")


class DiurnalProfile:
    """A day/night multiplier in ``[trough, 1.0]``.

    ``value(t) = trough + (1 - trough) · (1 - cos(2πt/period)) / 2`` —
    starts at the overnight trough, peaks exactly once per period. With
    ``phase_per_domain`` the peaks of successive domains are staggered
    around the clock (customers in different time zones), which is what
    makes the autoscaler shuttle the same spare pool between domains.
    """

    def __init__(self, period: float = 86_400.0, trough: float = 0.3,
                 domains: Optional[List[str]] = None,
                 stagger: bool = False) -> None:
        if not 0.0 <= trough <= 1.0:
            raise ValueError(f"trough must be in [0, 1], got {trough}")
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.period = float(period)
        self.trough = float(trough)
        self._phase: Dict[str, float] = {}
        if stagger and domains:
            for i, d in enumerate(domains):
                self._phase[d] = 2.0 * math.pi * i / len(domains)

    def __call__(self, domain: str, t: float) -> float:
        phase = self._phase.get(domain, 0.0)
        wave = 1.0 - math.cos(2.0 * math.pi * t / self.period - phase)
        return self.trough + (1.0 - self.trough) * wave / 2.0

    @property
    def peak(self) -> float:
        """Upper bound of the multiplier (for thinning)."""
        return 1.0


class SpikeSchedule:
    """Scripted flash crowds: ``domain -> (start, duration, magnitude)``.

    Additive load spikes — "peak loads that are orders of magnitude larger
    than the normal steady state" (Océano's motivation).
    """

    def __init__(self, spikes: Optional[Dict[str, Tuple[float, float, float]]] = None) -> None:
        self.spikes = dict(spikes or {})

    def extra(self, domain: str, t: float) -> float:
        spike = self.spikes.get(domain)
        if spike is None:
            return 0.0
        start, duration, magnitude = spike
        return magnitude if start <= t < start + duration else 0.0


class DomainLoadModel:
    """Per-domain offered load (requests/sec) over time.

    A slow sinusoid per domain — phase-shifted so domains peak at different
    times — plus optional flash-crowd spikes. Deterministic.
    """

    def __init__(
        self,
        domains: List[str],
        base: float = 100.0,
        amplitude: float = 80.0,
        period: float = 120.0,
        spikes: Optional[Dict[str, tuple]] = None,
    ) -> None:
        """``spikes`` maps domain → (start, duration, magnitude)."""
        self.domains = list(domains)
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.spikes = spikes or {}
        self._spike_schedule = SpikeSchedule(self.spikes)

    def load(self, domain: str, t: float) -> float:
        """Offered load (requests/sec) for ``domain`` at time ``t``."""
        i = self.domains.index(domain)
        phase = 2 * math.pi * i / max(1, len(self.domains))
        value = self.base + self.amplitude * math.sin(2 * math.pi * t / self.period + phase)
        value += self._spike_schedule.extra(domain, t)
        return max(0.0, value)

    # -- RequestStream adapter -----------------------------------------
    def as_profile(self):
        """This model as a ``profile(domain, t)`` multiplier callable.

        Normalized by ``base`` so a stream's ``base_rate`` keeps its
        meaning; pair with :attr:`peak_factor`.
        """
        base = max(self.base, 1e-9)

        def profile(domain: str, t: float) -> float:
            return self.load(domain, t) / base

        return profile

    @property
    def peak_factor(self) -> float:
        """Upper bound of :meth:`as_profile`'s multiplier."""
        base = max(self.base, 1e-9)
        spike_max = max(
            (s[2] for s in self.spikes.values()), default=0.0
        )
        return (self.base + abs(self.amplitude) + spike_max) / base
