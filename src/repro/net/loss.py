"""Link-quality models: latency and loss.

The paper analyses beaconing under loss: "if p is the probability of losing
a message ... the probability of losing k BEACON messages is p^k". A link is
that one fixed per-receiver loss probability p plus a uniform latency.

:meth:`LinkQuality.sample` returns ``(delivered, latency)`` for one receiver
of one frame, drawing from the segment's RNG stream.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["LinkQuality", "PerfectLink"]


class LinkQuality:
    """Independent per-receiver loss with uniform latency. Immutable after
    construction: a link changes by assigning a new model to ``Segment.quality``.

    Parameters
    ----------
    loss_probability:
        Probability each individual delivery is dropped (independently per
        receiver — a multicast may reach some members and miss others, which
        is exactly the failure scenario the discovery protocol must ride out).
    latency, jitter:
        Delivery delay is uniform in ``[latency - jitter, latency + jitter]``
        (clamped at a small epsilon so delivery is never instantaneous).
    """

    #: floor on delivery latency; events at t+0 would break causality checks
    MIN_LATENCY = 1e-6

    def __init__(
        self,
        loss_probability: float = 0.0,
        latency: float = 0.0005,
        jitter: float = 0.0002,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss_probability out of [0,1]: {loss_probability!r}")
        if latency <= 0:
            raise ValueError("latency must be positive")
        if jitter < 0 or jitter > latency:
            raise ValueError("jitter must satisfy 0 <= jitter <= latency")
        self.loss_probability = loss_probability
        self.latency = latency
        self.jitter = jitter
        #: the constant delivery latency when this link can neither drop nor
        #: jitter, else ``None``
        fixed = not loss_probability and not jitter
        self.fixed_latency = max(self.MIN_LATENCY, latency) if fixed else None

    def sample(self, rng: np.random.Generator) -> Tuple[bool, float]:
        """One delivery decision: ``(delivered, latency_seconds)``.

        Loss-free, jitter-free models (e.g. :class:`PerfectLink`) never
        touch the RNG, so the functional-test fast path costs no draws.
        """
        p = self.loss_probability
        if p > 0.0 and rng.random() < p:
            return False, 0.0
        if self.jitter > 0.0:
            lat = float(rng.uniform(self.latency - self.jitter, self.latency + self.jitter))
        else:
            lat = self.latency
        return True, max(self.MIN_LATENCY, lat)

    def sample_batch(self, rng: np.random.Generator, n: int) -> Tuple[Optional[np.ndarray], Any]:
        """Vectorised :meth:`sample` for the ``n`` receivers of one frame.

        Returns ``(delivered, latencies)`` where ``delivered`` is ``None``
        when every receiver gets the frame (the loss-free fast path) or a
        boolean array otherwise, and ``latencies`` is a scalar (jitter-free)
        or a float array. One RNG call per frame replaces one Python-level
        call per receiver — the multicast delivery hot path.
        """
        p = self.loss_probability
        delivered = rng.random(n) >= p if p > 0.0 else None
        if self.jitter > 0.0:
            lats = rng.uniform(self.latency - self.jitter, self.latency + self.jitter, n)
            np.maximum(lats, self.MIN_LATENCY, out=lats)
            return delivered, lats
        return delivered, max(self.MIN_LATENCY, self.latency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(p={self.loss_probability}, "
            f"latency={self.latency}, jitter={self.jitter})"
        )


class PerfectLink(LinkQuality):
    """Zero loss, fixed small latency. The default for functional tests."""

    def __init__(self, latency: float = 0.0005) -> None:
        super().__init__(loss_probability=0.0, latency=latency, jitter=0.0)

