"""Structured tracing and counters.

Every subsystem emits :class:`TraceRecord` entries through the simulator's
shared :class:`Trace`. Records carry a *category* (``"net.drop"``,
``"gs.commit"``, ...), a *source* label, and a payload dict. Benchmarks
usually only need the counters; tests assert on the record stream; examples
pretty-print it.

Recording full payloads for millions of events is wasteful, so categories can
be disabled (counted but not stored) or the whole record store can be capped.
Counters are always maintained.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["Trace", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: when, what kind, who, and details."""

    time: float
    category: str
    source: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.time:10.4f}] {self.category:<20} {self.source:<24} {kv}"


class Trace:
    """Append-only trace with per-category counters and optional storage.

    Parameters
    ----------
    store:
        If False, nothing is stored — only counters are kept. Benchmarks use
        this mode; with no subscribers attached, ``emit`` then skips
        :class:`TraceRecord` construction entirely (the fast path).
    categories:
        If given, only these categories produce records — stored *and*
        delivered to subscribers. Every category is still counted; the
        filter governs record construction, not accounting.
    """

    #: hard cap on stored records; older records are kept, newer dropped,
    #: and :attr:`truncated` is set. Protects long sweeps from unbounded
    #: memory growth.
    MAX_RECORDS = 1_000_000

    def __init__(
        self, store: bool = True, categories: Optional[Iterable[str]] = None
    ) -> None:
        self.records: list[TraceRecord] = []
        self.counters: Counter[str] = Counter()
        self.store = store
        self.categories = set(categories) if categories is not None else None
        self.truncated = False
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        # fast-path guard: True while no record could ever be consumed, so
        # emit() is counter-increment-and-return. Recomputed on subscribe().
        self._passive = not store

    def emit(self, time: float, category: str, source: str, **data: Any) -> None:
        """Record one event. Cheap when storage is off for the category.

        Counters are *always* maintained (they are the determinism
        contract the golden-trace tests assert on); record construction is
        skipped whenever nobody — store or subscriber — would see it.
        """
        self.counters[category] += 1
        if self._passive:
            return
        categories = self.categories
        if categories is not None and category not in categories:
            return
        rec = TraceRecord(time, category, source, data)
        if self.store:
            if len(self.records) < self.MAX_RECORDS:
                self.records.append(rec)
            else:
                self.truncated = True
        for sub in self._subscribers:
            sub(rec)

    def wants(self, category: str) -> bool:
        """Would :meth:`emit` build a record for ``category``? When not, a hot
        caller bumps :attr:`counters` itself and builds no payload."""
        return not self._passive and (self.categories is None or category in self.categories)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Call ``fn`` for every emitted record that passes the category
        filter.

        Subscribers see the same record stream the store would keep: if a
        ``categories`` filter is set, only matching categories are
        delivered. ``store=False`` does not silence subscribers — it only
        disables retention in :attr:`records`.
        """
        self._subscribers.append(fn)
        self._passive = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self, category: str) -> int:
        """Total emissions of ``category`` (independent of storage)."""
        return self.counters[category]

    def count_prefix(self, prefix: str) -> int:
        """Sum of counters whose category starts with ``prefix``."""
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def select(self, category: Optional[str] = None, source: Optional[str] = None) -> list[TraceRecord]:
        """Stored records matching the given category and/or source."""
        out = self.records
        if category is not None:
            out = [r for r in out if r.category == category]
        if source is not None:
            out = [r for r in out if r.source == source]
        return list(out) if out is self.records else out

    def last(self, category: str) -> Optional[TraceRecord]:
        """Most recent stored record of ``category``, or None."""
        for rec in reversed(self.records):
            if rec.category == category:
                return rec
        return None

    def clear(self) -> None:
        """Drop stored records and counters."""
        self.records.clear()
        self.counters.clear()
        self.truncated = False

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace(stored={len(self.records)}, categories={len(self.counters)})"
