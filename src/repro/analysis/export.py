"""Exporting run artifacts for downstream analysis.

Simulation runs produce three streams worth keeping: the structured trace,
the notification history, and sweep-result rows. This module serializes
all three to JSON or CSV so plots and notebooks can consume them without
importing the library. Everything is plain-stdlib; values that are not
JSON-native (IPAddress, enums) are stringified.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "notifications_to_json",
    "rows_to_csv",
    "rows_to_json",
    "trace_to_json",
    "write_text",
]


def _plain(value):
    """Coerce arbitrary payload values to JSON-native types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_plain(v) for v in value]
    return str(value)


def trace_to_json(trace, categories: Optional[Iterable[str]] = None, indent: int = 0) -> str:
    """Serialize a :class:`~repro.sim.trace.Trace` (stored records + counters)."""
    wanted = set(categories) if categories is not None else None
    records = [
        {
            "time": rec.time,
            "category": rec.category,
            "source": rec.source,
            "data": _plain(rec.data),
        }
        for rec in trace.records
        if wanted is None or rec.category in wanted
    ]
    doc = {
        "records": records,
        "counters": dict(trace.counters),
        "truncated": trace.truncated,
    }
    return json.dumps(doc, indent=indent or None)


def notifications_to_json(bus, indent: int = 0) -> str:
    """Serialize a :class:`~repro.gulfstream.notify.NotificationBus` history."""
    doc = [
        {
            "time": n.time,
            "kind": n.kind,
            "subject": n.subject,
            "detail": _plain(n.detail),
        }
        for n in bus.history
    ]
    return json.dumps(doc, indent=indent or None)


def rows_to_json(rows: Sequence[Mapping], indent: int = 0) -> str:
    """Serialize sweep rows (e.g. from :func:`repro.runner.run_sweep`)."""
    return json.dumps([_plain(dict(r)) for r in rows], indent=indent or None)


def rows_to_csv(rows: Sequence[Mapping], columns: Optional[Sequence[str]] = None) -> str:
    """Render sweep rows as CSV (header + one line per row)."""
    rows = list(rows)
    if columns is None:
        seen: List[str] = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        columns = seen
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _plain(row.get(k)) for k in columns})
    return buf.getvalue()


def write_text(path, text: str) -> None:
    """Write an artifact to disk (tiny convenience used by benches/notebooks)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
