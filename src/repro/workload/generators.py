"""Seed-deterministic request generators: Poisson arrivals, Zipf popularity.

The generator core follows the Icarus workload idiom (SNIPPETS.md §3): a
workload is an *iterable* that yields one event at a time, so a stream of
millions of simulated user requests never materializes a schedule in RAM.
Every random draw comes from a caller-supplied :class:`numpy.random.Generator`
per purpose (``arrivals`` / ``domains`` / ``users``), so the same seeds
always produce the identical event stream — inside a simulator the streams
come from the sim's named-RNG registry, in standalone statistical tests from
:func:`default_streams`.

* :class:`TruncatedZipf` — rank popularity ``P(r) ∝ r^-alpha`` over a finite
  catalogue (customers, domains), drawn by inverse-CDF lookup on a
  precomputed cumulative table with buffered uniforms.
* :class:`RequestStream` — a non-homogeneous Poisson process thinned against
  its peak rate (Lewis–Shedler), modulated by a per-domain rate profile
  (e.g. :class:`~repro.workload.profiles.DiurnalProfile`), with truncated-Zipf
  domain and user popularity.
* :func:`constant_rate` — the degenerate stream: one domain, fixed spacing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "RequestEvent",
    "RequestStream",
    "TruncatedZipf",
    "constant_rate",
    "default_streams",
]

#: stream purposes a :class:`RequestStream` consumes randomness for
STREAM_NAMES = ("arrivals", "domains", "users")

#: draw-buffer size: one bulk RNG call amortized over this many events
_BUFFER = 4096


def default_streams(seed: int) -> Dict[str, np.random.Generator]:
    """Independent generators per purpose, derived from one seed.

    Uses ``SeedSequence.spawn`` so the three streams are statistically
    independent and the mapping is stable across numpy versions that keep
    the Philox/PCG bit streams stable (the same guarantee the simulator's
    named-stream registry relies on).
    """
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {
        name: np.random.default_rng(child)
        for name, child in zip(STREAM_NAMES, children)
    }


class _UniformBuffer:
    """Buffered U[0,1) draws: bulk generation, scalar consumption."""

    def __init__(self, rng: np.random.Generator, size: int = _BUFFER) -> None:
        self._rng = rng
        self._size = size
        self._buf = rng.random(size)
        self._i = 0

    def next(self) -> float:
        if self._i >= self._size:
            self._buf = self._rng.random(self._size)
            self._i = 0
        value = self._buf[self._i]
        self._i += 1
        return float(value)


class TruncatedZipf:
    """Zipf-distributed ranks ``1..n`` with exponent ``alpha``.

    ``pmf(r) = r^-alpha / H(n, alpha)`` — the classic web-popularity model
    (``alpha`` around 0.6–1.0 for page popularity). Draws are inverse-CDF
    lookups (``searchsorted``) on a precomputed table, so a catalogue of a
    million users costs one 8 MB array once and ~O(log n) per draw.
    """

    def __init__(self, n: int, alpha: float = 0.9,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got n={n}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** -self.alpha
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._cdf[-1] = 1.0  # guard against accumulated rounding
        self._uniforms = _UniformBuffer(rng) if rng is not None else None

    def pmf(self, rank: int) -> float:
        """Probability of ``rank`` (1-based)."""
        return float(self._pmf[rank - 1])

    def draw(self) -> int:
        """One Zipf-distributed rank in ``1..n`` (needs a bound ``rng``)."""
        if self._uniforms is None:
            raise ValueError("TruncatedZipf was built without an rng")
        return int(np.searchsorted(self._cdf, self._uniforms.next(),
                                   side="right")) + 1

    def draws(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` ranks drawn in one vectorized call (for batch tests)."""
        return np.searchsorted(self._cdf, rng.random(size), side="right") + 1


@dataclass(frozen=True)
class RequestEvent:
    """One simulated user request: when, which customer domain, which user."""

    time: float
    domain: str
    user: int


def constant_rate(domain: str, rate: float) -> Iterator[RequestEvent]:
    """Evenly spaced arrivals for one domain, without end: the k-th at ``k / rate``."""
    for k in itertools.count():
        yield RequestEvent(time=k / rate, domain=domain, user=0)


class RequestStream:
    """Iterator of :class:`RequestEvent` — the traffic-plane source.

    Arrival process
        Non-homogeneous Poisson with instantaneous rate
        ``rate(t) = base_rate * Σ_d w_d · profile(d, t)`` where ``w_d`` is
        the (normalized) truncated-Zipf popularity of domain ``d``.
        Generated by thinning against ``base_rate * peak_factor``, which
        must bound every profile value.
    Domain choice
        Categorical with time-varying probabilities ``∝ w_d · profile(d, t)``.
    User choice
        Truncated Zipf over ``n_users`` simulated customers.

    ``rngs`` maps each of :data:`STREAM_NAMES` to an independent
    :class:`numpy.random.Generator`; by default they derive from ``seed``
    via :func:`default_streams`. Iteration is fully deterministic given the
    generators' states, and nothing is precomputed per event — the stream
    can run for millions of requests in constant memory.
    """

    def __init__(
        self,
        domains: Sequence[str],
        base_rate: float,
        duration: Optional[float] = None,
        n_users: int = 1_000_000,
        user_alpha: float = 0.9,
        domain_alpha: float = 0.8,
        profile: Optional[Callable[[str, float], float]] = None,
        peak_factor: Optional[float] = None,
        rngs: Optional[Mapping[str, np.random.Generator]] = None,
        seed: int = 0,
    ) -> None:
        if not domains:
            raise ValueError("a request stream needs at least one domain")
        if base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {base_rate}")
        self.domains: List[str] = list(domains)
        self.base_rate = float(base_rate)
        self.duration = duration
        self.profile = profile if profile is not None else (lambda d, t: 1.0)
        self.peak_factor = float(peak_factor) if peak_factor is not None else 1.0
        if self.peak_factor <= 0:
            raise ValueError(f"peak_factor must be > 0, got {self.peak_factor}")
        if rngs is None:
            rngs = default_streams(seed)
        missing = [name for name in STREAM_NAMES if name not in rngs]
        if missing:
            raise ValueError(f"rngs is missing streams {missing}")
        self._arrival_rng = rngs["arrivals"]
        self._domain_uniforms = _UniformBuffer(rngs["domains"])
        self._users = TruncatedZipf(n_users, user_alpha, rng=rngs["users"])
        domain_zipf = TruncatedZipf(len(self.domains), domain_alpha)
        self._weights = [domain_zipf.pmf(r) for r in range(1, len(self.domains) + 1)]
        self._exp_buf = np.empty(0)
        self._exp_i = 0

    # ------------------------------------------------------------------
    def _next_exponential(self) -> float:
        """Unit-mean exponential, buffered like the uniforms."""
        if self._exp_i >= len(self._exp_buf):
            self._exp_buf = self._arrival_rng.exponential(1.0, _BUFFER)
            self._exp_i = 0
        value = self._exp_buf[self._exp_i]
        self._exp_i += 1
        return float(value)

    def _intensities(self, t: float) -> List[float]:
        """Unnormalized per-domain arrival intensities at ``t``."""
        return [
            w * max(0.0, self.profile(d, t))
            for d, w in zip(self.domains, self._weights)
        ]

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[RequestEvent]:
        peak = self.base_rate * self.peak_factor
        t = 0.0
        while True:
            t += self._next_exponential() / peak
            if self.duration is not None and t >= self.duration:
                return
            lam = self._intensities(t)
            total = sum(lam)
            # thinning: accept with prob rate(t)/peak_rate; the same
            # uniform then picks the domain, conditioned on acceptance
            u = self._domain_uniforms.next() * peak
            offered = self.base_rate * total
            if offered > peak + 1e-9:
                raise ValueError(
                    f"profile exceeds the declared peak_factor at t={t:.3f} "
                    f"(rate {offered:.3f} > peak {peak:.3f})"
                )
            if u >= offered:
                continue
            acc = 0.0
            domain = self.domains[-1]
            for d, l in zip(self.domains, lam):
                acc += self.base_rate * l
                if u < acc:
                    domain = d
                    break
            yield RequestEvent(time=t, domain=domain, user=self._users.draw())
