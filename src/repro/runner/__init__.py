"""Parallel experiment fabric.

Every figure in the reproduction is a *grid* of independent simulation
runs. This package turns that fan-out into a first-class subsystem:

* :mod:`repro.runner.seeding` — deterministic per-task seeds derived
  from a stable hash of ``(experiment, grid point, replicate)``, so a
  sweep's results are byte-identical regardless of worker count or
  scheduling order.
* :mod:`repro.runner.pool` — :class:`ParallelRunner`, which starts
  ``spawn``ed workers for one ``map``, hands chunks of sweep tasks to
  whichever answers first and stops them before returning, with per-task
  timeouts and graceful in-process fallback when ``jobs=1``, a task does
  not pickle or a worker dies.
* :mod:`repro.runner.cache` — :class:`ResultCache`, a content-addressed
  on-disk result store keyed by the task's parameters plus a fingerprint
  of the simulator's source, so re-running an unchanged sweep is a cache
  hit and only edited grid points recompute.
* :mod:`repro.runner.sweep` — :func:`run_sweep`, the high-level grid
  runner gluing the three together, with multi-seed replication
  (``replicates=N``) and mean/stdev aggregation.

Every ``benchmarks/bench_*.py`` grid and campaign calls
:func:`run_sweep`; the ``gulfstream-sim`` CLI exposes it as
``--jobs`` / ``--replicates`` / ``--cache``.
"""

from repro.runner.cache import ResultCache, code_fingerprint, default_cache_dir
from repro.runner.pool import ParallelRunner, TaskTimeout, sleep_task
from repro.runner.seeding import canonical_json, stable_hash, task_seed
from repro.runner.sweep import aggregate_replicates, run_sweep

__all__ = [
    "ParallelRunner",
    "ResultCache",
    "TaskTimeout",
    "aggregate_replicates",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "run_sweep",
    "sleep_task",
    "stable_hash",
    "task_seed",
]
