"""Measurement and experiment harnesses.

* :mod:`repro.analysis.stability` — the Figure 5 / Equation 1 apparatus:
  run a testbed discovery, measure time-to-stable, decompose the δ
  overhead into the paper's three components.
* :mod:`repro.analysis.sweeps` — plain-text table formatting used by
  every benchmark to print paper-style rows (grids run through
  :func:`repro.runner.run_sweep`).
"""

from repro.analysis.stability import StabilityResult, eq1_prediction, measure_stability
from repro.analysis.report import summarize_farm
from repro.analysis.sweeps import format_table

__all__ = [
    "StabilityResult",
    "eq1_prediction",
    "format_table",
    "measure_stability",
    "summarize_farm",
]
