"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's figures/analyses as a
plain-text table: printed to stdout (visible with ``pytest -s``) and written
to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference stable
artifacts. The pytest-benchmark fixture wraps each full experiment once
(``pedantic(rounds=1)``) — the interesting output is the table, the timing
is just a bonus. A written table holds only simulated quantities, so it
comes out byte-identical on every run; wall-clock numbers are printed, never
written. Timing is measured by the full-stack benchmark in ``benchmarks/e2e/``.
"""

from __future__ import annotations

import os
import pathlib

from repro.runner import run_sweep  # noqa: F401 — the benches' grid entry point

RESULTS = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[written to benchmarks/results/{name}.txt]")


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark fixture and return its
    result (no warmup/calibration reruns of a multi-second experiment)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_jobs(default: int = 1) -> int:
    """Worker count for grid-shaped benches: the ``BENCH_JOBS`` env var.

    The default stays serial so a bare ``pytest benchmarks/`` behaves
    exactly as before; ``BENCH_JOBS=4 pytest benchmarks/`` fans every
    converted grid out over the parallel experiment fabric. Sweep results
    are identical either way (seeds are scheduling-independent).
    """
    try:
        return int(os.environ.get("BENCH_JOBS", default))
    except ValueError:
        return default
