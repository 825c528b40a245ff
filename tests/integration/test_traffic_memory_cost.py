"""What a traffic case holds for its user population, pinned (docs/PROTOCOL.md
§10, "What an arrival costs").

The farm routes a request by its domain alone, so a case draws no user rank
and builds no user rank table: at a million users that table is two 8 MB
float64 arrays, built by every case before the farm stopped reading users.
One QUICK case runs at ``n_users=1_000_000`` with every ``TruncatedZipf``
construction counted and under ``tracemalloc``.
"""

import tracemalloc

import pytest

from repro.workload.generators import TruncatedZipf
from repro.workload.traffic import run_traffic_case

from tests.workload.test_traffic import QUICK

#: the traced peak over building and running the case, in MB; the rank
#: table alone is 16 (readings on Python 3.11.7: 16.75 with it, 1.45 without)
PEAK_BOUND_MB = 8.0


@pytest.fixture(scope="module")
def run():
    """The case's row, the size of every Zipf table it built and its
    traced peak in MB."""
    built = []
    init = TruncatedZipf.__init__

    def counting_init(self, n, alpha=0.9):
        built.append(n)
        init(self, n, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedZipf, "__init__", counting_init)
        tracemalloc.start()
        try:
            row = run_traffic_case(case=0, seed=7, **{**QUICK, "n_users": 1_000_000})
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert row["requests"]["issued"] > 500
    return row, built, peak / 2**20


def test_a_case_builds_no_user_table(run):
    row, built, _peak = run
    assert built, "the domain table is a TruncatedZipf too"
    assert max(built) <= len(row["domains"]), built


def test_a_case_peaks_below_the_user_table(run):
    _row, _built, peak = run
    assert peak < PEAK_BOUND_MB, peak
