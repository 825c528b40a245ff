"""Parallel experiment fabric.

Every figure in the reproduction is a *grid* of independent simulation
runs. This package turns that fan-out into a first-class subsystem:

* :mod:`repro.runner.seeding` — deterministic per-task seeds derived
  from a stable hash of ``(experiment, grid point, replicate)``, so a
  sweep's results are byte-identical regardless of worker count or
  scheduling order.
* :mod:`repro.runner.pool` — the one worker process (``spawn``ed, a
  duplex pipe, one state per worker) and the two classes on it:
  :class:`ParallelRunner`, which hands chunks of sweep tasks to
  whichever worker answers first, with per-task timeouts and graceful
  in-process fallback when ``jobs=1``, a task does not pickle or a
  worker dies, on top of :class:`PersistentWorkerPool`, N long-lived
  workers each holding one state.
* :mod:`repro.runner.cache` — :class:`ResultCache`, a content-addressed
  on-disk result store keyed by the task's parameters plus a fingerprint
  of the simulator's source, so re-running an unchanged sweep is a cache
  hit and only edited grid points recompute.
* :mod:`repro.runner.sweep` — :func:`run_sweep`, the high-level grid
  runner gluing the three together, with multi-seed replication
  (``replicates=N``) and mean/stdev aggregation.

``repro.analysis.run_grid`` and every ``benchmarks/bench_*.py`` grid sit
on top of this package; the ``gulfstream-sim`` CLI exposes it as
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
