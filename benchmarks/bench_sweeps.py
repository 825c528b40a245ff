"""SWEEPS — the parallel experiment fabric, measured.

Engineering experiment: not a paper figure but the machinery every figure
runs on. A Figure-5-sized grid (|T_beacon| x |nodes| = 15 points, 2
replicates = 30 independent simulations) is run three ways through
:func:`repro.runner.run_sweep`:

1. **serial** — ``jobs=1``, no cache (the pre-fabric behavior);
2. **parallel cold** — ``jobs=4`` over a spawn worker pool, populating a
   fresh content-addressed result cache;
3. **parallel warm** — the identical call again: every task is a cache
   hit, nothing is dispatched.

The determinism contract is asserted, not assumed: all three produce
*identical* row lists (seeds are a stable hash of the task identity, so
neither worker count, scheduling order, nor the JSON round-trip through
the cache may change a single value).

Because CPU-bound speedup is capped by the core count (a 1-core CI box
measures ~1x no matter how good the dispatcher is), the bench also runs a
sleep-based **overlap probe** — sleeps overlap perfectly, so this isolates
the fabric's actual concurrency from the host's core budget.

Every number in the table is a wall-clock time, a ratio of two, or a
count, so the table is printed and not written under ``benchmarks/results/``:
a tracked copy would change on every run.
"""

import os
import tempfile
import time

from repro.analysis import format_table, measure_stability
from repro.metrics import MetricsRegistry
from repro.runner import ResultCache, run_sweep, sleep_task

from _common import once

BEACON_TIMES = (5.0, 10.0, 20.0)
NODE_COUNTS = (2, 10, 25, 40, 55)
REPLICATES = 2
JOBS = 4

OVERLAP_TASKS = 12
OVERLAP_SLEEP = 0.5


def stability_point(T_beacon: float, nodes: int, seed: int) -> dict:
    r = measure_stability(nodes, beacon_duration=T_beacon, seed=seed)
    return {
        "adapters": r.n_adapters,
        "stable_s": r.stable_time,
        "delta_s": r.delta,
        "complete": r.adapters_discovered == r.n_adapters,
    }


def _sweep(jobs, cache, metrics):
    return run_sweep(
        stability_point,
        {"T_beacon": BEACON_TIMES, "nodes": NODE_COUNTS},
        jobs=jobs,
        replicates=REPLICATES,
        experiment="bench.sweeps",
        seed_arg="seed",
        cache=cache,
        metrics=metrics,
    )


def run_fabric():
    # the fabric accounts for itself in a metrics registry; the cache
    # numbers below are read back from it rather than from cache internals
    reg = MetricsRegistry()
    m_hits = reg.counter("runner.sweep.cache_hits")
    m_misses = reg.counter("runner.sweep.cache_misses")

    t0 = time.perf_counter()
    serial_rows = _sweep(jobs=1, cache=None, metrics=reg)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="gulfstream-bench-cache-") as tmp:
        cache = ResultCache(root=tmp)
        t0 = time.perf_counter()
        parallel_rows = _sweep(jobs=JOBS, cache=cache, metrics=reg)
        parallel_s = time.perf_counter() - t0
        cold_misses = int(m_misses.value)

        hits_before_warm = m_hits.value
        t0 = time.perf_counter()
        warm_rows = _sweep(jobs=JOBS, cache=cache, metrics=reg)
        warm_s = time.perf_counter() - t0
        # hit rate of the warm re-run alone (the cold run is all misses)
        warm_tasks = len(BEACON_TIMES) * len(NODE_COUNTS) * REPLICATES
        hit_rate = (m_hits.value - hits_before_warm) / warm_tasks
        # the registry's view must agree with the cache's own tallies
        assert m_hits.value == cache.hits and m_misses.value == cache.misses

    # the determinism contract: worker count, scheduling order, and the
    # cache's JSON round-trip change nothing
    assert parallel_rows == serial_rows, "parallel sweep diverged from serial"
    assert warm_rows == serial_rows, "cache replay diverged from computation"

    t0 = time.perf_counter()
    run_sweep(sleep_task, {"seconds": [OVERLAP_SLEEP] * OVERLAP_TASKS}, jobs=1,
              metrics=reg)
    overlap_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_sweep(sleep_task, {"seconds": [OVERLAP_SLEEP] * OVERLAP_TASKS}, jobs=JOBS,
              metrics=reg)
    overlap_parallel_s = time.perf_counter() - t0

    assert reg.counter("runner.sweep.sweeps").value == 5
    assert reg.histogram("runner.sweep.wall_clock_s").count == 5

    return {
        "grid_points": len(BEACON_TIMES) * len(NODE_COUNTS),
        "replicates": REPLICATES,
        "tasks": len(BEACON_TIMES) * len(NODE_COUNTS) * REPLICATES,
        "jobs": JOBS,
        "cpus": os.cpu_count() or 1,
        "serial_s": round(serial_s, 3),
        "parallel_cold_s": round(parallel_s, 3),
        "parallel_warm_s": round(warm_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "warm_speedup": round(parallel_s / warm_s, 1),
        "cache_hit_rate": round(hit_rate, 4),
        "cold_misses": cold_misses,
        "overlap_serial_s": round(overlap_serial_s, 3),
        "overlap_parallel_s": round(overlap_parallel_s, 3),
        "overlap_speedup": round(overlap_serial_s / overlap_parallel_s, 2),
        "rows": serial_rows,
    }


class _NullBenchmark:
    """Fixture stand-in so the bench also runs without pytest."""

    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()


def test_sweep_fabric(benchmark):
    m = once(benchmark, run_fabric)
    rows = m.pop("rows")
    table = format_table(
        [m],
        columns=["tasks", "jobs", "cpus", "serial_s", "parallel_cold_s",
                 "parallel_warm_s", "speedup", "warm_speedup",
                 "cache_hit_rate", "overlap_speedup"],
        title=(
            "The experiment fabric on a Fig.-5-sized grid "
            f"({m['grid_points']} points x {m['replicates']} replicates)\n"
            "speedup is core-bound; overlap_speedup isolates dispatch concurrency"
        ),
    )
    print(f"\n{table}\n")

    # grid sanity: the sweep really reproduced Figure 5's shape
    assert len(rows) == m["grid_points"]
    assert all(r["replicates"] == REPLICATES for r in rows)
    assert all(r["complete"] for r in rows)
    # a warm cache must make re-running an unchanged sweep essentially free
    assert m["cache_hit_rate"] == 1.0
    assert m["cold_misses"] == m["tasks"]
    assert m["warm_speedup"] >= 10.0, m
    # the pool really overlaps tasks (core-count independent)
    assert m["overlap_speedup"] >= 2.0, m
    # CPU-bound speedup only where the silicon allows it
    if m["cpus"] >= 4:
        assert m["speedup"] >= 2.0, m


if __name__ == "__main__":
    test_sweep_fabric(_NullBenchmark())
