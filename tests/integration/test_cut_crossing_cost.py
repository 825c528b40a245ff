"""What a cut crossing and a request cost, pinned with counts (docs/PROTOCOL.md §8).

One QUICK traffic case at ``shards=1`` — two islands in this process, every
request, response and admin-VLAN frame crossing the cut between them — runs
under cProfile. Counts repeat exactly for a seed and do not care how loaded
the host is. Every pin fails on the code before inline hand-over went by
reference: two pickle calls per epoch and island, 15.9 ``isinstance`` tests
per ``on_frame``, one ``_maybe_purge`` per ``schedule_at``.
"""

import cProfile
import pstats

import pytest

from repro.workload.traffic import run_traffic_case

from tests.workload.test_traffic import QUICK


@pytest.fixture(scope="module")
def profile():
    profiler = cProfile.Profile()
    profiler.enable()
    row = run_traffic_case(case=0, seed=7, shards=1, **QUICK)
    profiler.disable()
    assert row["cross_messages"] > 1000 and row["requests"]["issued"] > 500
    return pstats.Stats(profiler).stats


def _calls(stats, name, module):
    return sum(
        ncalls for (filename, _line, fn), (_cc, ncalls, *_rest) in stats.items()
        if fn == name and filename.endswith(module)
    )


def _calls_from(stats, callee, caller, module):
    """Calls of ``callee`` (a function name) made by ``caller`` in ``module``."""
    return sum(
        entry[0]
        for (_file, _line, fn), (*_counts, callers) in stats.items() if fn == callee
        for (filename, _l, name), entry in callers.items()
        if name == caller and filename.endswith(module)
    )


def test_inline_run_pickles_nothing(profile):
    """Between islands of one process a frame crosses as the object it is."""
    pickling = {fn: entry[1] for (_file, _line, fn), entry in profile.items() if "_pickle." in fn}
    assert pickling == {}


def test_on_frame_finds_its_handler_by_type(profile):
    """A table probe, not an ``isinstance`` ladder: what is left is the short
    tail an application frame walks past the kinds the daemon routes."""
    on_frame = _calls(profile, "on_frame", "gulfstream/adapter_proto.py")
    assert on_frame > 1000
    tests = _calls_from(
        profile, "<built-in method builtins.isinstance>", "on_frame", "gulfstream/adapter_proto.py"
    )
    assert 0 < tests <= 5 * on_frame, tests / on_frame


def test_schedule_at_checks_the_dead_count_before_calling_purge(profile):
    """Every request arrival and every cut injection is a ``schedule_at``;
    it calls for a purge only when the dead count says one may be due (the
    unconditional check at the end of each ``run`` is what keeps the bound)."""
    schedule_at = _calls(profile, "schedule_at", "sim/engine.py")
    assert schedule_at > 1000
    assert _calls_from(profile, "_maybe_purge", "schedule_at", "sim/engine.py") < schedule_at / 2
