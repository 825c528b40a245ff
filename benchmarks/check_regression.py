#!/usr/bin/env python
"""Gate the ``BENCH_*.json`` perf trajectories against their own history.

Every engineering benchmark appends one point per run to a repo-root
trajectory file (see :func:`_common.emit_bench_json`). This script compares
the ``latest`` point against a baseline — the median of the preceding
history points — with a per-metric tolerance band, and exits non-zero when
a watched metric regressed beyond its band. It is the CI ``bench-gate``
job's teeth, and runs locally the same way::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py BENCH_engine.json --tolerance 0.3

Metric direction is inferred from the key:

* **higher is better** — ``*_per_sec*``, ``*_per_hour*`` (the traffic
  plane's moves-sustained capacity), ``*delivery_rate*``, ``*speedup*``,
  ``*hit_rate``;
* **lower is better** — ``*_s`` wall-clocks, ``*peak_heap*``, ``*peak_rss*``,
  ``us_per_*`` unit costs;
* everything else (counts, core numbers, configuration echoes, ``baseline_*``
  comparison anchors) is informational and never gates.

Wall-clock metrics get a wider band than rate metrics because trajectory
points come from heterogeneous machines (dev boxes, CI runners). The
CPU-bound metrics (``speedup`` — parallel sweep dispatch — and
``shard_speedup`` — sharded vs single-process simulation) are skipped
entirely when either the recording host or the checking host has fewer
than 4 cores — a 1-core runner measures ~1x regardless of dispatcher or
shard quality, so the number carries no signal there. The sharded scale
metrics classify by the usual substrings: ``sharded_delivery_rate_*``
gates upward, ``sharded_peak_rss_mb_*`` (children + parent RSS) gates
downward, and the ``shards`` configuration echo is informational.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

#: schema this checker understands (matches _common.BENCH_SCHEMA)
BENCH_SCHEMA = 1

#: prior history points the baseline median is taken over
BASELINE_WINDOW = 5

#: keys that look like perf metrics but must never gate
_INFO_KEYS = {
    "date",
    "rev",
    "cpus",
    "jobs",
    "grid_points",
    "replicates",
    "tasks",
    "cold_misses",
    "steady_hour16_events",
    # events / wall-clock: a change that deletes cheap events lowers it
    # while the run gets faster; steady_hour16_wallclock_s carries the gate
    "steady_hour16_events_per_sec",
    "suite_wallclock_s",
    "shards",
}

#: metrics only meaningful with real parallel silicon underneath
_CPU_BOUND_KEYS = {"speedup", "shard_speedup"}
_MIN_CPUS_FOR_CPU_BOUND = 4

#: absolute floors per trajectory stem — semantic SLOs, not machine speed,
#: so they gate even the very first recorded point (which has no baseline).
#: The workload campaign must keep availability through its chaos mix and
#: the autoscaler must sustain moves with zero invariant violations
#: (``moves_per_hour`` is zeroed by the report builder on any violation).
ABS_FLOORS: Dict[str, Dict[str, float]] = {
    "BENCH_workload": {"availability": 0.9, "moves_per_hour": 1.0},
}


def classify(key: str) -> str:
    """``"higher"`` / ``"lower"`` / ``"info"`` for one metric key."""
    if key in _INFO_KEYS or key.startswith("baseline_"):
        # baseline_* keys echo the comparison configuration's absolute
        # rate (machine-dependent); the gated signal is the ratio metric
        return "info"
    if (
        "_per_sec" in key or "_per_hour" in key or "delivery_rate" in key
        or "speedup" in key or key.endswith("hit_rate")
    ):
        return "higher"
    if key.endswith("_s") or "peak_heap" in key or "peak_rss" in key or "us_per_" in key:
        return "lower"
    return "info"


def baseline_of(history: Sequence[Dict[str, Any]], key: str) -> Optional[float]:
    """Median of the key over the last ``BASELINE_WINDOW`` prior points."""
    values = [
        float(point[key])
        for point in history[-BASELINE_WINDOW:]
        if isinstance(point.get(key), (int, float))
    ]
    if not values:
        return None
    return float(statistics.median(values))


def check_doc(
    doc: Dict[str, Any],
    *,
    tolerance: float = 0.5,
    wall_tolerance: float = 1.5,
    host_cpus: Optional[int] = None,
    floors: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Failure messages for one trajectory document (empty = pass).

    ``tolerance`` bands rate-like metrics (fail when latest is worse than
    the baseline by more than this relative fraction); ``wall_tolerance``
    bands wall-clock metrics, wider because machines differ. ``floors``
    maps metric keys to absolute minima that apply regardless of history
    (see :data:`ABS_FLOORS`).
    """
    if doc.get("schema") != BENCH_SCHEMA:
        return [f"unsupported trajectory schema {doc.get('schema')!r}"]
    history: List[Dict[str, Any]] = list(doc.get("history", []))
    latest = doc.get("latest")
    if latest is None:
        return ["trajectory has no latest point"]
    failures: List[str] = []
    for key, floor in sorted((floors or {}).items()):
        value = latest.get(key)
        if isinstance(value, (int, float)) and float(value) < floor:
            failures.append(f"{key}: {value:g} below the absolute floor {floor:g}")
    # the latest point is appended to history too; baseline = points before it
    prior = history[:-1] if history and history[-1] == latest else history
    if not prior:
        return failures  # first recorded point: nothing to regress from
    if host_cpus is None:
        host_cpus = os.cpu_count() or 1

    for key, value in latest.items():
        direction = classify(key)
        if direction == "info" or not isinstance(value, (int, float)):
            continue
        if key in _CPU_BOUND_KEYS:
            recorded_cpus = latest.get("cpus")
            effective = min(
                host_cpus,
                recorded_cpus if isinstance(recorded_cpus, int) else host_cpus,
            )
            if effective < _MIN_CPUS_FOR_CPU_BOUND:
                continue  # 1-2 core host: CPU-bound speedup carries no signal
        baseline = baseline_of(prior, key)
        if baseline is None or baseline == 0:
            continue
        band = wall_tolerance if key.endswith("_s") else tolerance
        if direction == "higher":
            floor = baseline * (1.0 - band)
            if value < floor:
                failures.append(
                    f"{key}: {value:g} fell below {floor:g} "
                    f"(baseline {baseline:g}, tolerance {band:.0%})"
                )
        else:
            ceiling = baseline * (1.0 + band)
            if value > ceiling:
                failures.append(
                    f"{key}: {value:g} rose above {ceiling:g} "
                    f"(baseline {baseline:g}, tolerance {band:.0%})"
                )
    return failures


def check_file(
    path: pathlib.Path,
    *,
    tolerance: float = 0.5,
    wall_tolerance: float = 1.5,
    host_cpus: Optional[int] = None,
) -> List[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable trajectory: {exc}"]
    return check_doc(
        doc,
        tolerance=tolerance,
        wall_tolerance=wall_tolerance,
        host_cpus=host_cpus,
        floors=ABS_FLOORS.get(path.stem),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help="trajectory files (default: BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="relative band for rate-like metrics (default 0.5 = 50%%)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=1.5,
        help="relative band for wall-clock metrics (default 1.5 = 150%%)",
    )
    args = parser.parse_args(argv)

    paths = list(args.paths)
    if not paths:
        root = pathlib.Path(__file__).parent.parent
        paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json trajectories found", file=sys.stderr)
        return 2

    host_cpus = os.cpu_count() or 1
    failed = False
    for path in paths:
        failures = check_file(
            path,
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
            host_cpus=host_cpus,
        )
        if failures:
            failed = True
            print(f"FAIL {path.name} ({host_cpus} cpus):")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"ok   {path.name} ({host_cpus} cpus)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
