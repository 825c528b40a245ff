"""The grid sweep: seeding + cache + pool, one call.

:func:`run_sweep` is the one entry point every grid in the repository
calls (CLI sweep commands, benches, chaos and workload campaigns). With
the default options it is the serial grid evaluation (rows in grid
order); the keyword-only options add, independently:

* ``jobs=N`` — dispatch tasks over a :class:`~repro.runner.pool.ParallelRunner`.
* ``seed_arg="seed"`` — inject a deterministic per-task seed (see
  :func:`~repro.runner.seeding.task_seed`) into each call.
* ``replicates=N`` — run every grid point N times with independent seeds
  and aggregate numeric metrics to mean + ``<metric>_sd`` columns.
* ``cache=ResultCache(...)`` — replay unchanged tasks from disk; only
  missing tasks are dispatched.

Because seeds are a pure function of the task identity and results are
reassembled in grid order, the returned rows are identical for every
``jobs`` value and on warm vs cold caches.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.metrics.core import MetricsRegistry
from repro.runner.cache import MISS, ResultCache
from repro.runner.pool import ParallelRunner
from repro.runner.seeding import task_seed

__all__ = ["aggregate_replicates", "run_sweep"]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_replicates(
    point: Mapping[str, Any], results: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Collapse one grid point's replicate results into a single row.

    Numeric metrics become their mean plus a ``<name>_sd`` sample-stdev
    column; non-numeric metrics keep the first replicate's value. The
    row also records ``replicates``.
    """
    row: Dict[str, Any] = dict(point)
    for key in results[0]:
        values = [r[key] for r in results]
        if all(_is_number(v) for v in values):
            row[key] = statistics.fmean(values)
            row[f"{key}_sd"] = statistics.stdev(values) if len(values) > 1 else 0.0
        else:
            row[key] = values[0]
    row["replicates"] = len(results)
    return row


def run_sweep(
    fn: Callable[..., Mapping],
    grid: Dict[str, Sequence],
    fixed: Optional[Dict] = None,
    *,
    jobs: int = 1,
    replicates: int = 1,
    experiment: Optional[str] = None,
    seed_arg: Optional[str] = None,
    base_seed: int = 0,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[Dict]:
    """Evaluate ``fn(**point, **fixed)`` over the cartesian grid.

    Rows come back in grid order (last key varies fastest), each the
    grid point merged with the task's result mapping — aggregated over
    ``replicates`` runs when that is > 1.

    With a ``metrics`` registry, the sweep accounts for itself there:
    ``runner.sweep.tasks`` / ``dispatched`` / ``cache_hits`` /
    ``cache_misses`` counters, a ``runner.sweep.jobs`` gauge, and a
    ``runner.sweep.wall_clock_s`` histogram of per-sweep wall time (the
    one legitimately *wall*-clocked metric in the registry — sweeps run
    outside any simulator). A sample is recorded when the sweep finishes.
    """
    fixed = fixed or {}
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    wall_t0 = time.perf_counter()
    if experiment is None:
        experiment = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"

    keys = list(grid)
    points = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]

    # one task per (point, replicate), in deterministic order
    task_kwargs: List[Dict[str, Any]] = []
    for point in points:
        for rep in range(replicates):
            kwargs = {**point, **fixed}
            if seed_arg is not None:
                kwargs[seed_arg] = task_seed(experiment, point, rep, base_seed)
            task_kwargs.append(kwargs)

    results: List[Any] = [None] * len(task_kwargs)
    to_run: List[int] = []
    cache_keys: List[Optional[str]] = [None] * len(task_kwargs)
    if cache is not None:
        for i, kwargs in enumerate(task_kwargs):
            cache_keys[i] = cache.key(experiment, kwargs)
            hit = cache.get(cache_keys[i])
            if hit is MISS:
                to_run.append(i)
            else:
                results[i] = hit
    else:
        to_run = list(range(len(task_kwargs)))

    if to_run:
        runner = ParallelRunner(jobs=jobs, timeout=timeout)
        computed = runner.map(fn, [task_kwargs[i] for i in to_run])
        for i, result in zip(to_run, computed):
            results[i] = result
            if cache is not None:
                cache.put(cache_keys[i], dict(result))

    rows: List[Dict] = []
    for p_idx, point in enumerate(points):
        group = results[p_idx * replicates : (p_idx + 1) * replicates]
        if replicates == 1:
            row = dict(point)
            row.update(group[0])
        else:
            row = aggregate_replicates(point, group)
        rows.append(row)

    if metrics is not None:
        metrics.counter("runner.sweep.sweeps").inc()
        metrics.counter("runner.sweep.grid_points").inc(len(points))
        metrics.counter("runner.sweep.tasks").inc(len(task_kwargs))
        metrics.counter("runner.sweep.dispatched").inc(len(to_run))
        if cache is not None:
            metrics.counter("runner.sweep.cache_hits").inc(len(task_kwargs) - len(to_run))
            metrics.counter("runner.sweep.cache_misses").inc(len(to_run))
        metrics.gauge("runner.sweep.jobs").set(jobs)
        metrics.gauge("runner.sweep.replicates").set(replicates)
        metrics.histogram("runner.sweep.wall_clock_s").observe(
            time.perf_counter() - wall_t0
        )
        metrics.sample()
    return rows
