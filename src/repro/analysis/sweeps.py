"""Table formatting.

Every benchmark prints its reproduction as a plain-text table (the paper's
"figures" are one-dimensional sweeps, so rows are the honest rendering).
The rows come from :func:`repro.runner.run_sweep`; ``format_table``
renders them the way the benches and EXPERIMENTS.md present them.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table"]


def format_table(
    rows: Iterable[Mapping],
    columns: Sequence[str],
    headers: Optional[Sequence[str]] = None,
    floatfmt: str = ".2f",
    title: Optional[str] = None,
) -> str:
    """Fixed-width plain-text table."""
    headers = list(headers) if headers is not None else list(columns)
    rendered: List[List[str]] = []
    for row in rows:
        line = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, float):
                line.append(format(v, floatfmt))
            else:
                line.append(str(v))
        rendered.append(line)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(fmt_line(headers))
    out.append(fmt_line(["-" * w for w in widths]))
    out.extend(fmt_line(r) for r in rendered)
    return "\n".join(out)
