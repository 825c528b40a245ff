"""What a frame costs, pinned with counts (docs/PROTOCOL.md §8).

One fault-free window on a small discovered farm, shaped like the e2e
``steady`` workload (chaos parameters, the monitor's trace and sweep), runs
under cProfile. Counts repeat exactly for a seed and do not care how loaded
the host is, so each pin states a budget the ``Segment → NIC →
AdapterProtocol → OSModel`` path must keep: values fixed for a view are
computed per view, values fixed for a link per link, and a hop that only
forwards is folded into the next. Every pin fails on the code before the
change that set it (114.8, then 76.8 calls per ring round; three
``net.loss`` calls and three ``net.packet`` calls per frame, then one
``Frame`` per ring-tick frame; one ``Heartbeat`` per round; 4.8 engine
calls per fired event).
"""

import cProfile
import pstats
from pathlib import Path

import pytest

import repro
from repro.checks import (
    CHAOS_PARAMS,
    CheckWindows,
    InvariantMonitor,
    build_named_farm,
    monitor_trace,
)
from repro.gulfstream.heartbeat import RingHeartbeat
from repro.gulfstream.messages import Heartbeat
from repro.net.loss import PerfectLink
from repro.node.osmodel import OSParams

from tests.integration.test_shared_view_equivalence import _counted

SRC = str(Path(repro.__file__).resolve().parent)
WINDOW_SIM_S = 20.0


@pytest.fixture(scope="module")
def window():
    """Discover ``oceano16`` (32 adapters), then profile one quiet window."""
    built = {"heartbeats": 0, "engines": 0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Heartbeat, "__init__", _counted(built, "heartbeats", Heartbeat.__init__))
        patch.setattr(RingHeartbeat, "__init__", _counted(built, "engines", RingHeartbeat.__init__))
        os_params = OSParams.fast()
        farm = build_named_farm(
            "oceano16", seed=1, params=CHAOS_PARAMS, os_params=os_params, trace=monitor_trace()
        )
        farm.start()
        assert farm.run_until_stable(timeout=180.0) is not None
        monitor = InvariantMonitor(farm, windows=CheckWindows.from_params(farm.params, os_params))
        monitor.start()
        farm.sim.run(until=farm.sim.now + 5.0)  # every ring engine is ticking
    rounds = farm.sim.metrics.counter("gs.hb.rounds")
    hb_sent = farm.sim.metrics.counter("gs.hb.sent")
    segments = farm.fabric.segments.values()
    rounds_before, hb_sent_before = rounds.value, hb_sent.value
    frames_before = sum(seg.frames_sent for seg in segments)
    events_before = farm.sim.events_executed
    engines = []  # ring engines built inside the window
    init = RingHeartbeat.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    profiler = cProfile.Profile()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RingHeartbeat, "__init__", recording)
        profiler.enable()
        farm.sim.run(until=farm.sim.now + WINDOW_SIM_S)
        profiler.disable()
    monitor.finalize()
    assert not monitor.violations
    calls = {}  # (path relative to src/repro, function) -> calls
    for (filename, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        if filename.startswith(SRC):
            key = (filename[len(SRC) + 1:], name)
            calls[key] = calls.get(key, 0) + ncalls
    return {
        "farm": farm,
        "built": built,
        "total_rounds": rounds.value,
        "rounds": rounds.value - rounds_before,
        "frames": sum(seg.frames_sent for seg in segments) - frames_before,
        "ring_frames": hb_sent.value - hb_sent_before,
        "engine_frames": sum(len(engine._frames) for engine in engines),
        "events": farm.sim.events_executed - events_before,
        "calls": calls,
    }


def _calls_in(window, module):
    return {fn: n for (path, fn), n in window["calls"].items() if path == module}


def test_window_is_the_quiescent_ring(window):
    """The preconditions the pins below rest on."""
    assert len(window["farm"].fabric.nics) == 32
    assert window["rounds"] > 1000
    assert window["frames"] > 2 * window["rounds"]  # two neighbours, plus leader beacons
    assert all(type(seg.quality) is PerfectLink for seg in window["farm"].fabric.segments.values())


def test_python_calls_per_ring_round_stay_within_budget(window):
    """Everything ``src/repro`` does in the window — send, deliver, handle,
    check, the monitor's sweeps — divided by the ring rounds that caused it.
    Measured 50.8 (it was 114.8, then 76.8); the budget leaves ≈ 15 %."""
    per_round = sum(window["calls"].values()) / window["rounds"]
    assert per_round <= 60.0, per_round


def test_engine_calls_per_fired_event_stay_within_budget(window):
    """The run loop consumes the queue itself and a timer re-arms without
    re-validating: what ``sim/engine.py`` runs per fired event is its share
    of ``schedule`` and the slot pours. Measured 1.80 (it was 4.80, a
    ``peek_time`` + ``pop`` pair per event)."""
    per_event = sum(_calls_in(window, "sim/engine.py").values()) / window["events"]
    assert per_event <= 2.0, per_event


def test_fixed_latency_links_are_never_sampled(window):
    """Every link here can neither drop nor jitter and said so once, at
    construction: no frame asks it again."""
    assert _calls_in(window, "net/loss.py") == {}


def test_ring_tick_constructs_no_frame(window):
    """A ring engine builds its frames once, with the view: the ``Frame``
    constructions in the window are the frames sent by anything but a ring
    tick, plus the frames of engines built in the window. Nothing else in
    ``net/packet.py`` runs (no id factory, no ``is_multicast`` call)."""
    built = window["frames"] - window["ring_frames"] + window["engine_frames"]
    assert _calls_in(window, "net/packet.py") == {"__init__": built}


def test_heartbeat_message_is_built_per_engine_not_per_round(window):
    built = window["built"]
    assert built["engines"] >= 32
    assert built["heartbeats"] == built["engines"]
    assert window["total_rounds"] > 10 * built["engines"]
