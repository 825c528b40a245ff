"""What a request costs, pinned with counts (docs/PROTOCOL.md §8).

One QUICK traffic case at ``shards=1`` — the classic run, one simulator in
this process, with no cut for a request, response or admin-VLAN frame to
cross — runs under cProfile. Counts repeat exactly for a seed and do not
care how loaded the host is. The pins fail on older code: the one-worker
shard pipeline called the cut channel for every crossing and once pickled
each epoch twice per island; ``on_frame`` made 15.9 ``isinstance`` tests
per call, and later four for each application frame; ``schedule_at`` made one ``_maybe_purge`` call per call.
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
    assert row["cross_messages"] == 0 and row["requests"]["issued"] > 500
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
    """One worker is one simulator in this process: nothing is serialised."""
    pickling = {fn: entry[1] for (_file, _line, fn), entry in profile.items() if "_pickle." in fn}
    assert pickling == {}


def test_classic_run_never_touches_the_cut_channel(profile):
    """No partition gateway, no cut message, no inbox merge: the channel's
    functions are never called."""
    channel = {
        fn: entry[1] for (filename, _line, fn), entry in profile.items()
        if filename.endswith("sim/shard/channel.py")
    }
    assert channel == {}


def test_on_frame_finds_its_handler_by_type(profile):
    """A table probe, not an ``isinstance`` ladder: every payload type,
    application kinds included, is routed by one lookup of its type.
    Application frames are routed when they are received and handled by
    ``_on_app_frame``, so the routed frames are the calls of both."""
    on_frame = _calls(profile, "on_frame", "gulfstream/adapter_proto.py")
    routed = on_frame + _calls(profile, "_on_app_frame", "gulfstream/adapter_proto.py")
    assert routed > 1000
    tests = _calls_from(
        profile, "<built-in method builtins.isinstance>", "on_frame", "gulfstream/adapter_proto.py"
    )
    assert tests == 0, tests / on_frame


def test_schedule_at_checks_the_dead_count_before_calling_purge(profile):
    """Every request arrival is a ``schedule_at``; it calls for a purge only
    when the dead count says one may be due (the unconditional check at the
    end of each ``run`` is what keeps the bound)."""
    schedule_at = _calls(profile, "schedule_at", "sim/engine.py")
    assert schedule_at > 500
    assert _calls_from(profile, "_maybe_purge", "schedule_at", "sim/engine.py") < schedule_at / 2
