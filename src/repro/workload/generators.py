"""Seed-deterministic request generators: Poisson arrivals, Zipf popularity.

The generator core follows the Icarus workload idiom (SNIPPETS.md §3): a
workload is an *iterable* that yields one event at a time, so a stream of
millions of simulated requests never materializes a schedule in RAM.
Every random draw comes from a caller-supplied :class:`numpy.random.Generator`
per purpose (``arrivals`` / ``domains``), so the same seeds always produce
the identical event stream — inside a simulator the streams come from the
sim's named-RNG registry, in standalone statistical tests from
:func:`default_streams`.

* :class:`TruncatedZipf` — rank popularity ``P(r) ∝ r^-alpha`` over a finite
  catalogue (the customer domains), drawn by inverse-CDF lookup on a
  precomputed cumulative table.
* :class:`RequestStream` — a non-homogeneous Poisson process thinned against
  its peak rate (Lewis–Shedler), modulated by a per-domain rate profile
  (e.g. :class:`~repro.workload.profiles.DiurnalProfile`), with truncated-Zipf
  domain popularity; computed a draw buffer at a time, yielded an
  :class:`Arrival` ``(time, domain)`` at a time.
* :func:`constant_rate` — the degenerate stream: one domain, fixed spacing.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "Arrival",
    "RequestStream",
    "TruncatedZipf",
    "constant_rate",
    "default_streams",
]

#: stream purposes a :class:`RequestStream` consumes randomness for
STREAM_NAMES = ("arrivals", "domains")

#: draw-buffer size: one bulk RNG call amortized over this many events
_BUFFER = 4096

#: Zipf exponent of the domains' popularity
DOMAIN_ALPHA = 0.8


def default_streams(seed: int) -> Dict[str, np.random.Generator]:
    """Independent generators per purpose, derived from one seed.

    Uses ``SeedSequence.spawn`` so the two streams are statistically
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
    """Buffered U[0,1) draws: bulk generation, consumed a buffer at a time."""

    def __init__(self, rng: np.random.Generator, size: int = _BUFFER) -> None:
        self._rng = rng
        self._size = size
        self._buf = rng.random(size)
        self._spent = False

    def block(self) -> np.ndarray:
        """The next ``size`` draws: the first buffer, then a fresh one per call."""
        if self._spent:
            self._buf = self._rng.random(self._size)
        self._spent = True
        return self._buf


class TruncatedZipf:
    """Zipf-distributed ranks ``1..n`` with exponent ``alpha``.

    ``pmf(r) = r^-alpha / H(n, alpha)`` — the classic web-popularity model
    (``alpha`` around 0.6–1.0 for page popularity). Draws are inverse-CDF
    lookups (``searchsorted``) on a precomputed table: ~O(log n) per draw.
    """

    def __init__(self, n: int, alpha: float = 0.9) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got n={n}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.n = int(n)
        self.alpha = float(alpha)
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** -self.alpha
        weights /= weights.sum()  # in place: a million-rank table peaks at two arrays
        self._pmf = weights
        self._cdf = np.cumsum(self._pmf)
        self._cdf[-1] = 1.0  # guard against accumulated rounding

    def pmf(self, rank: int) -> float:
        """Probability of ``rank`` (1-based)."""
        return float(self._pmf[rank - 1])

    def ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """The rank each of ``uniforms`` maps to (inverse CDF, ``1..n``)."""
        return self._cdf.searchsorted(uniforms, side="right") + 1

    def draws(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` ranks drawn in one vectorized call (for batch tests)."""
        return self.ranks(rng.random(size))


class Arrival(NamedTuple):
    """One arrival as the farm sees it: when, and which customer domain."""

    time: float
    domain: str


def constant_rate(domain: str, rate: float) -> Iterator[Arrival]:
    """Evenly spaced arrivals for one domain, without end: the k-th at ``k / rate``."""
    for k in itertools.count():
        yield Arrival(k / rate, domain)


class RequestStream:
    """Iterator of :class:`Arrival` — the traffic-plane source.

    Arrival process
        Non-homogeneous Poisson with instantaneous rate
        ``rate(t) = base_rate * Σ_d w_d · profile(d, t)`` where ``w_d`` is
        the (normalized) truncated-Zipf popularity of domain ``d``
        (exponent :data:`DOMAIN_ALPHA`).
        Generated by thinning against ``base_rate * peak_factor``, which
        must bound every profile value.
    Domain choice
        Categorical with time-varying probabilities ``∝ w_d · profile(d, t)``.

    ``rngs`` maps each of :data:`STREAM_NAMES` to an independent
    :class:`numpy.random.Generator`; by default they derive from ``seed``
    via :func:`default_streams`. Iteration is fully deterministic given the
    generators' states. Candidates are drawn and thinned a block at a time
    with array operations, bit for bit what one candidate at a time would
    give (docs/PROTOCOL.md §10), and events are yielded one at a time — the
    stream can run for millions of requests in constant memory. The profile
    is still called once per domain and candidate, with a Python float.
    """

    def __init__(
        self,
        domains: Sequence[str],
        base_rate: float,
        duration: Optional[float] = None,
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
        domain_zipf = TruncatedZipf(len(self.domains), DOMAIN_ALPHA)
        self._weights = [domain_zipf.pmf(r) for r in range(1, len(self.domains) + 1)]

    # ------------------------------------------------------------------
    def _thin(
        self, times: np.ndarray, uniforms: np.ndarray, peak: float
    ) -> Tuple[List[float], List[int], Optional[str]]:
        """Candidate arrivals at ``times``, thinned by ``uniforms`` and
        assigned a domain.

        Returns the accepted times and domain indices, in order, and the
        error the stream ends with if a candidate exceeds the declared
        peak (the events before it are still accepted). Every step is the
        scalar generator's IEEE operation in its order, elementwise.
        """
        base = self.base_rate
        at = times.tolist()
        lam = []
        for d, w in zip(self.domains, self._weights):
            value = np.fromiter(map(self.profile, itertools.repeat(d), at), np.float64, len(at))
            lam.append(w * np.where(value > 0.0, value, 0.0))  # max(0.0, v), NaN -> 0.0
        total = 0.0  # summed left to right, as CPython 3.11's sum() does
        for part in lam:
            total = total + part
        offered = base * total
        u = uniforms * peak
        error = None
        over = np.flatnonzero(offered > peak + 1e-9)
        if len(over):
            k = int(over[0])
            error = (
                f"profile exceeds the declared peak_factor at t={float(times[k]):.3f} "
                f"(rate {float(offered[k]):.3f} > peak {peak:.3f})"
            )
            times, u, offered, lam = times[:k], u[:k], offered[:k], [part[:k] for part in lam]
        # the same uniform picks the domain, conditioned on acceptance: the
        # first domain whose running share exceeds it, else the last
        shares = []
        acc = 0.0
        for part in lam[:-1]:
            acc = acc + base * part
            shares.append(acc)
        pick = np.full(len(times), len(lam) - 1)
        for j in range(len(shares) - 1, -1, -1):
            pick = np.where(u < shares[j], j, pick)
        accept = ~(u >= offered)
        return times[accept].tolist(), pick[accept].tolist(), error

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Arrival]:
        """The stream's events as :class:`Arrival` ``(time, domain)`` pairs,
        yielded one at a time, drawn and thinned a buffer of 4096
        candidates at a time — one buffer per refill of the exponential and
        domain draws. A peak violation raises once the block's events
        before it have been yielded."""
        names = self.domains
        peak = self.base_rate * self.peak_factor
        t = 0.0
        while True:
            times = self._arrival_rng.exponential(1.0, _BUFFER)
            times /= peak
            times[0] += t
            np.cumsum(times, out=times)  # a sequential add: the scalar ``t += e / peak``
            n = _BUFFER
            if self.duration is not None:
                n = int(np.count_nonzero(times < self.duration))  # times never decrease
                if n == 0:
                    return
            t = float(times[-1])
            uniforms = self._domain_uniforms.block()
            accepted, picks, error = self._thin(times[:n], uniforms[:n], peak)
            for time, k in zip(accepted, picks):
                yield Arrival(time, names[k])
            if error is not None:
                raise ValueError(error)
            if n < _BUFFER:
                return
