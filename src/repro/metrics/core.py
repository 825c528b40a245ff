"""Typed metrics primitives: counters, gauges, histograms, and the registry.

The simulation's quantitative claims — detection latency, heartbeat/beacon
message load, GSC reporting bytes (paper §5, Figures 5-7) — used to live in
ad-hoc tallies scattered across subsystems and benchmark scripts. This
module gives them one home: a :class:`MetricsRegistry` attached to every
:class:`~repro.sim.engine.Simulator` (alongside the :class:`~repro.sim.trace.Trace`),
holding typed metric instruments keyed by name + labels.

Two update styles keep the hot paths honest:

* **push** — protocol code resolves an instrument once (``reg.counter(...)``
  returns the same object for the same key) and calls ``inc``/``observe``
  at the choke point. Used where events are infrequent relative to the
  event loop (heartbeat sends, suspicions, GSC reports).
* **pull** — subsystems that already keep plain-int tallies on their own
  hot paths (segments, NICs, the engine itself) register a *collector*
  callback; ``collect()`` copies the tallies into instruments only when a
  sample or export is taken. Zero added cost per frame/event.

Samples are stamped in **simulated time** (the registry's ``clock``), so an
exported time-series aligns with the trace, not with the wall clock.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "metric_key",
]

Labels = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (seconds): latency-shaped,
#: log-spaced from 1 ms to 10 min; an implicit +inf bucket catches the rest
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
    600.0,
)


def metric_key(name: str, labels: Labels) -> str:
    """Stable flat key: ``name`` or ``name{k=v,...}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Common identity shared by every instrument."""

    kind: str = "metric"

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.key = metric_key(name, labels)

    def value_dict(self) -> Dict[str, Any]:
        """The exportable value of this instrument (overridden per kind)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.key})"


class Counter(Metric):
    """A monotonically increasing count (events, frames, bytes)."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease (inc {amount!r})")
        self.value += amount

    def set_total(self, total: Union[int, float]) -> None:
        """Set the absolute total — the pull-collector path.

        Collectors copy an externally maintained tally; the monotonicity
        contract still holds, so a total below the current value is a bug
        in the caller.
        """
        if total < self.value:
            raise ValueError(f"counter {self.key} cannot decrease ({self.value!r} -> {total!r})")
        self.value = total

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge(Metric):
    """A level that can move both ways (queue depth, adapters up)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram(Metric):
    """Fixed-bucket distribution with p50/p95/p99 summaries.

    Buckets are *upper bounds* with ``<=`` semantics (Prometheus ``le``):
    an observation equal to a bound lands in that bound's bucket. One
    implicit overflow bucket (+inf) catches everything above the last
    bound. Percentiles are estimated by linear interpolation inside the
    containing bucket, clamped to the observed min/max so tiny samples do
    not report impossible values.
    """

    kind = "histogram"

    def __init__(
        self, name: str, labels: Labels, buckets: Optional[Sequence[float]] = None
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError(f"histogram {self.key} needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {self.key} bucket bounds must be sorted: {bounds!r}")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {self.key} bucket bounds must be unique: {bounds!r}")
        self.bounds: Tuple[float, ...] = bounds
        #: per-bucket observation counts; index len(bounds) is the +inf bucket
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (0 < p <= 100) from the buckets."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p!r}")
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (target - cumulative) / bucket_count
                estimate = lo + (hi - lo) * frac
                return max(self.min, min(self.max, estimate))
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable (count > 0)

    def summary(self) -> Dict[str, float]:
        """The scalar digest exported for this histogram."""
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def value_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = self.summary()
        out["buckets"] = {
            **{str(b): c for b, c in zip(self.bounds, self.bucket_counts)},
            "+inf": self.bucket_counts[-1],
        }
        return out


class MetricsRegistry:
    """All instruments of one simulation (or one sweep run).

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *simulated* time;
        samples are stamped with it. Without a clock, samples are stamped
        with a plain 0, 1, 2, ... sequence (the wall-clock-side runner
        registry uses explicit timestamps instead).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []
        #: recorded time-series: ``(t, {key: value_dict})`` per sample
        self.samples: List[Tuple[float, Dict[str, Dict[str, Any]]]] = []

    # ------------------------------------------------------------------
    # instrument lookup (get-or-create; same key returns the same object)
    # ------------------------------------------------------------------
    def _lookup(self, cls: type, name: str, labels: Mapping[str, Any]) -> Metric:
        normalized: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        key = metric_key(name, normalized)
        metric = self._metrics.get(key)
        if metric is None:
            instance = cls(name, normalized)
            assert isinstance(instance, Metric)
            self._metrics[key] = metric = instance
        elif not isinstance(metric, cls):
            wanted = getattr(cls, "kind", cls.__name__)
            raise TypeError(f"metric {key!r} already registered as {metric.kind}, not {wanted}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        metric = self._lookup(Counter, name, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        metric = self._lookup(Gauge, name, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        normalized: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        key = metric_key(name, normalized)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, normalized, buckets=buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {key!r} already registered as {metric.kind}, not histogram")
        return metric

    def get(self, key: str) -> Optional[Metric]:
        """The instrument with the given flat key, if any."""
        return self._metrics.get(key)

    def __iter__(self) -> Iterator[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.key))

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # collection & sampling
    # ------------------------------------------------------------------
    def register_collector(self, fn: Callable[[], None]) -> None:
        """Register a pull-collector, run by :meth:`collect`.

        Collectors copy externally maintained tallies into instruments;
        they must be idempotent (``set_total``/``set``, never ``inc``).
        """
        self._collectors.append(fn)

    def collect(self) -> None:
        """Run every registered collector, refreshing pulled instruments."""
        for fn in self._collectors:
            fn()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Collect, then return ``{key: value_dict}`` for every instrument."""
        self.collect()
        return {m.key: m.value_dict() for m in self}

    def sample(self, t: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Collect and append one time-stamped snapshot to the series.

        ``t`` defaults to the registry clock (simulated time); without a
        clock, samples are numbered 0, 1, 2, ...
        """
        if t is None:
            t = self.clock() if self.clock is not None else float(len(self.samples))
        snap = self.snapshot()
        self.samples.append((t, snap))
        return snap

    def detach(self) -> "MetricsRegistry":
        """Collect once more, then drop the collectors and the clock.

        Both hold the simulator (collectors are closures over its segments,
        NICs and engine; the clock is its ``now``). A detached registry
        holds only its instruments' values, so it outlives the farm it
        measured without keeping the farm alive. Returns the registry.
        """
        self.collect()
        self._collectors = []
        self.clock = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry(metrics={len(self._metrics)}, samples={len(self.samples)})"
