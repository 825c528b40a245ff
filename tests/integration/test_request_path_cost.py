"""What an arrival and a request cost, pinned with counts (docs/PROTOCOL.md §8
and §10).

One QUICK traffic case runs under cProfile. Counts repeat exactly for a
seed and do not care how loaded the host is. The pins fail on older code:
the request stream made several Python calls per candidate arrival and ran
one ``searchsorted`` per accepted arrival, a front end rebuilt its worker
list from the AMG view on every request, every request scheduled two
timeouts (one cancelled, one firing as a no-op) on top of an ``Event`` per
frame delivery, frame handling and service time, a case once pickled its
state twice per step, ``on_frame`` made 15.9 ``isinstance`` tests per call
(later four for each application frame), and ``schedule_at`` made one
``_maybe_purge`` call per call.
"""

import cProfile
import math
import pstats

import pytest

from repro.farm.requests import FrontEndApp
from repro.gulfstream.adapter_proto import AdapterProtocol
from repro.sim.engine import Event
from repro.workload.traffic import run_traffic_case

from tests.workload.test_traffic import QUICK


def _is_front_end_internal(nic):
    handler = getattr(nic, "app_handler", None)
    return getattr(handler, "__func__", None) is FrontEndApp._on_internal_frame


@pytest.fixture(scope="module")
def run():
    """The profiled case, plus every worker list a front end handed out and
    every view installed on a front end's domain-internal adapter."""
    lists, views = [], []
    workers, install = FrontEndApp._workers, AdapterProtocol._install_view

    def counting_workers(self):
        result = workers(self)
        lists.append(result)  # kept alive: distinct objects are distinct builds
        return result

    def counting_install(self, view, reason):
        install(self, view, reason)
        if self.view is view and _is_front_end_internal(self.nic):
            views.append(view)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FrontEndApp, "_workers", counting_workers)
        mp.setattr(AdapterProtocol, "_install_view", counting_install)
        profiler = cProfile.Profile()
        profiler.enable()
        row = run_traffic_case(case=0, seed=7, **QUICK)
        profiler.disable()
    assert row["requests"]["issued"] > 500
    return row, pstats.Stats(profiler).stats, lists, views


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


def test_a_case_pickles_nothing(run):
    """A case is one simulator in this process: nothing is serialised."""
    _row, stats, _lists, _views = run
    pickling = {fn: entry[1] for (_file, _line, fn), entry in stats.items() if "_pickle." in fn}
    assert pickling == {}


def test_on_frame_finds_its_handler_by_type(run):
    """A table probe, not an ``isinstance`` ladder: every payload type,
    application kinds included, is routed by one lookup of its type.
    Application frames are routed when they are received and handled by
    ``_on_app_frame``, so the routed frames are the calls of both."""
    _row, stats, _lists, _views = run
    on_frame = _calls(stats, "on_frame", "gulfstream/adapter_proto.py")
    routed = on_frame + _calls(stats, "_on_app_frame", "gulfstream/adapter_proto.py")
    assert routed > 1000
    tests = _calls_from(
        stats, "<built-in method builtins.isinstance>", "on_frame", "gulfstream/adapter_proto.py"
    )
    assert tests == 0, tests / on_frame


def test_schedule_at_checks_the_dead_count_before_calling_purge(run):
    """Every request arrival is a ``schedule_at``; it calls for a purge only
    when the dead count says one may be due (the unconditional check at the
    end of each ``run`` is what keeps the bound)."""
    _row, stats, _lists, _views = run
    schedule_at = _calls(stats, "schedule_at", "sim/engine.py")
    assert schedule_at > 500
    assert _calls_from(stats, "_maybe_purge", "schedule_at", "sim/engine.py") < schedule_at / 2


def test_stream_makes_no_python_call_per_candidate(run):
    """The stream's own code costs one generator resume per request plus a
    few calls per 4096-candidate block, not a buffered draw, an intensity
    list and a rank lookup per candidate."""
    row, stats, _lists, _views = run
    issued = row["requests"]["issued"]
    calls = sum(
        ncalls for (filename, _line, _fn), (_cc, ncalls, *_rest) in stats.items()
        if filename.endswith("workload/generators.py")
    )
    # 50 covers building the stream and the handful of calls each block
    # makes (the QUICK case draws two blocks); the scalar stream made ~9
    # calls per request
    assert calls <= issued + 50, (calls, issued)


def test_user_ranks_cost_one_searchsorted_per_draw_block(run):
    row, stats, _lists, _views = run
    searches = sum(
        entry[1] for (_file, _line, fn), entry in stats.items()
        if fn == "<method 'searchsorted' of 'numpy.ndarray' objects>"
    )
    assert searches <= math.ceil(row["requests"]["issued"] / 4096) + 1


def test_front_end_builds_its_worker_list_once_per_view(run):
    _row, _stats, lists, views = run
    assert len(lists) > 500 and views
    builds = len({id(workers) for workers in lists})
    assert builds <= len(views) + 1, (builds, len(views))


def _event_calls(stats, method):
    """Calls of ``Event.<method>`` (the engine module has other ``__init__``s)."""
    code = getattr(Event, method).__code__
    return sum(
        entry[1] for (filename, line, fn), entry in stats.items()
        if fn == method and line == code.co_firstlineno and filename == code.co_filename
    )


def test_a_request_allocates_no_event_per_frame(run):
    """Frame deliveries, frame handling and service times are posted: an
    ``Event`` is made only for work someone may cancel (the parent of this
    pin made 15 317 for 622 requests)."""
    row, stats, _lists, _views = run
    issued = row["requests"]["issued"]
    events = _event_calls(stats, "__init__")
    assert events <= issued + 300, (events, issued)


def test_a_response_cancels_nothing(run):
    """A response leaves its timeout entry behind instead of cancelling an
    event (657 cancels before)."""
    _row, stats, _lists, _views = run
    assert _event_calls(stats, "cancel") <= 50


def test_requests_schedule_no_event(run):
    """Timeouts take reserved seqs and service times are posted: nothing in
    the request plane calls ``Simulator.schedule``."""
    _row, stats, _lists, _views = run
    scheduled = {
        name: entry[0]
        for (filename, _line, fn), (*_counts, callers) in stats.items()
        if fn == "schedule" and filename.endswith("sim/engine.py")
        for (caller_file, _l, name), entry in callers.items()
        if caller_file.endswith("farm/requests.py")
    }
    assert scheduled == {}
