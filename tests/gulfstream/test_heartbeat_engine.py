"""RingHeartbeat engine unit tests, driven against a stub protocol."""

import operator
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gulfstream.amg import AMGView
from repro.gulfstream.heartbeat import RingHeartbeat
from repro.gulfstream.messages import SIZE_HEARTBEAT, Heartbeat, MemberInfo
from repro.gulfstream.params import GSParams
from repro.net.addressing import IPAddress
from repro.net.packet import Frame
from repro.sim.engine import Simulator


def mi(ip):
    return MemberInfo(ip=IPAddress(ip), node="n", adapter_index=0)


class StubProto:
    def __init__(self, sim, ip, params=None):
        self.sim = sim
        self.ip = IPAddress(ip)
        self.params = params or GSParams(hb_interval=1.0, hb_miss_threshold=2,
                                         orphan_timeout=5.0)
        self.sent: list[tuple[IPAddress, Any]] = []
        #: what each tick handed to ``send_frames``
        self.ticks: list[tuple] = []

        class _Nic:
            name = f"stub/{ip}"

        self.nic = _Nic()

    def send(self, dst, payload, size=None):
        self.sent.append((dst, payload))
        return True

    def send_frames(self, frames):
        self.ticks.append(frames)
        self.sent.extend((frame.dst, frame.payload) for frame in frames)
        return True

    def trace(self, *a, **k):
        pass


def make_engine(n=4, me="10.0.0.2", mode="bidirectional", **param_overrides):
    sim = Simulator(seed=1)
    params = GSParams(**{"hb_interval": 1.0, "hb_miss_threshold": 2, "orphan_timeout": 5.0,
                         "hb_mode": mode, **param_overrides})
    proto = StubProto(sim, me, params)
    view = AMGView.build([mi(f"10.0.0.{i + 1}") for i in range(n)], epoch=1)
    suspects, silences = [], []
    eng = RingHeartbeat(proto, view,
                        on_suspect=suspects.append,
                        on_total_silence=lambda: silences.append(sim.now))
    return sim, proto, view, eng, suspects, silences


def test_bidirectional_targets_are_both_neighbors():
    sim, proto, view, eng, *_ = make_engine(4, me="10.0.0.2")
    left, right = view.neighbors(proto.ip)
    assert eng.targets == {left, right}
    assert eng.monitored == {left, right}


def test_unidirectional_sends_right_monitors_left():
    sim, proto, view, eng, *_ = make_engine(4, me="10.0.0.2", mode="unidirectional")
    left, right = view.neighbors(proto.ip)
    assert eng.targets == {right}
    assert eng.monitored == {left}


def test_pair_group_single_neighbor():
    sim, proto, view, eng, *_ = make_engine(2, me="10.0.0.1")
    assert eng.targets == {IPAddress("10.0.0.2")}
    assert eng.monitored == {IPAddress("10.0.0.2")}


def test_heartbeats_sent_each_interval():
    sim, proto, view, eng, *_ = make_engine(4)
    sim.run(until=5.0)
    hbs = [p for (_, p) in proto.sent if isinstance(p, Heartbeat)]
    # 2 targets x ~5 intervals (jittered start)
    assert 6 <= len(hbs) <= 12
    assert eng.sent == len(hbs)


def test_silent_neighbor_suspected_after_threshold():
    sim, proto, view, eng, suspects, _ = make_engine(4)
    left, right = view.neighbors(proto.ip)
    # only the right neighbour keeps talking
    feeder = Simulator  # noqa: F841  (clarity)
    def feed():
        eng.on_heartbeat(right, 1)
    from repro.sim.process import Timer
    Timer(sim, 1.0, feed, initial_delay=0.2)
    sim.run(until=6.0)
    assert left in suspects
    assert right not in suspects


def test_heartbeat_clears_pending_suspicion_and_resuspects_later():
    sim, proto, view, eng, suspects, _ = make_engine(4)
    left, right = view.neighbors(proto.ip)
    from repro.sim.process import Timer
    Timer(sim, 1.0, lambda: eng.on_heartbeat(right, 1), initial_delay=0.2)
    sim.run(until=6.0)
    first = len(suspects)
    assert first >= 1
    # left comes back...
    eng.on_heartbeat(left, 1)
    sim.run(until=8.0)
    assert len(suspects) == first  # no new suspicion while fresh
    # ...then goes silent again: engine re-raises
    sim.run(until=20.0)
    assert len(suspects) > first


def test_total_silence_raised_and_reraised():
    sim, proto, view, eng, _, silences = make_engine(4)
    sim.run(until=18.0)
    # orphan_timeout=5: first raise ~5.5s, re-raised every ~5s after
    assert len(silences) >= 2
    assert silences[1] - silences[0] >= 5.0 - 1e-9


def test_any_heartbeat_resets_silence_episode():
    sim, proto, view, eng, _, silences = make_engine(4)
    left, right = view.neighbors(proto.ip)
    from repro.sim.process import Timer
    Timer(sim, 2.0, lambda: eng.on_heartbeat(left, 1), initial_delay=0.5)
    sim.run(until=20.0)
    assert silences == []


def test_stop_halts_sending():
    sim, proto, view, eng, *_ = make_engine(4)
    sim.run(until=3.0)
    n = len(proto.sent)
    eng.stop()
    sim.run(until=10.0)
    assert len(proto.sent) == n


def test_heartbeat_from_unmonitored_ignored():
    sim, proto, view, eng, suspects, _ = make_engine(5, me="10.0.0.3")
    stranger = IPAddress("10.0.0.1")  # in group but not my neighbour
    assert stranger not in eng.monitored
    eng.on_heartbeat(stranger, 1)
    assert eng.received == 0


def test_send_jitter_derives_from_hb_jitter_frac():
    """The send timer's jitter is hb_jitter_frac * hb_interval (the old
    code's `min(0.05*i, 0.45*i)` was a no-op min, always the 0.05 arm)."""
    _, _, _, eng, *_ = make_engine(4, hb_jitter_frac=0.25)
    assert eng._send_timer is not None
    assert eng._send_timer.jitter == pytest.approx(0.25 * 1.0)
    # large-but-valid fractions still satisfy the Timer's jitter < interval
    _, _, _, eng2, *_ = make_engine(4, hb_jitter_frac=0.95)
    assert eng2._send_timer is not None and eng2._send_timer.jitter < 1.0


def test_zero_jitter_frac_disables_send_jitter():
    sim, proto, _, eng, *_ = make_engine(4, hb_jitter_frac=0.0)
    assert eng._send_timer is not None and eng._send_timer.jitter == 0.0
    sim.run(until=5.0)
    assert eng.sent > 0


def test_send_targets_cached_in_deterministic_order():
    _, _, view, eng, *_ = make_engine(4, me="10.0.0.2")
    assert set(eng._send_targets) == eng.targets
    assert list(eng._send_targets) == sorted(eng.targets, key=int)


def test_message_is_built_once_per_engine_and_reused_every_round():
    sim, proto, view, eng, *_ = make_engine(4, hb_jitter_frac=0.0)
    sim.run(until=5.5)
    payloads = [m for _, m in proto.sent]
    assert len(payloads) >= 8
    assert all(m is payloads[0] for m in payloads)
    assert payloads[0] == Heartbeat(sender=proto.ip, epoch=view.epoch)


def test_tick_sends_the_same_prebuilt_frames_every_round():
    """A tick builds no frame: it hands ``send_frames`` the engine's frames,
    one per target in ``_send_targets`` order, the same objects every
    round."""
    sim, proto, view, eng, *_ = make_engine(4, hb_jitter_frac=0.0)
    sim.run(until=5.5)
    assert len(proto.ticks) >= 4
    first = proto.ticks[0]
    assert all(len(tick) == len(first) and all(map(operator.is_, tick, first))
               for tick in proto.ticks)
    msg = Heartbeat(sender=proto.ip, epoch=view.epoch)
    assert list(first) == [Frame(proto.ip, dst, msg, SIZE_HEARTBEAT) for dst in eng._send_targets]


def test_engine_uses_the_stream_its_owner_hands_it():
    """The adapter resolves ``hb/<nic>`` once and passes it to every engine
    it builds; an engine built without one resolves the same stream itself."""
    drawn = []
    for hand_over in (False, True):
        sim = Simulator(seed=1)
        proto = StubProto(sim, "10.0.0.2")
        view = AMGView.build([mi(f"10.0.0.{i + 1}") for i in range(4)], epoch=1)
        rng = sim.rng.stream("hb/stub/10.0.0.2") if hand_over else None
        eng = RingHeartbeat(proto, view, lambda ip: None, lambda: None, rng=rng)
        sim.run(until=4.0)
        assert eng._send_timer.rng is sim.rng.stream("hb/stub/10.0.0.2")
        drawn.append(eng._send_timer.rng.bit_generator.state)
    assert drawn[0] == drawn[1]


def _check_without_shortcut(eng):
    """``RingHeartbeat._check`` before it learned to return early when every
    neighbour is fresh — kept here as the oracle for the property below."""
    p = eng.proto.params
    now = eng.proto.sim.now
    threshold = p.hb_miss_threshold * p.hb_interval
    resuspect_after = max(2, p.hb_miss_threshold) * p.hb_interval * 3
    for ip in eng.monitored:
        silent_for = now - eng.last_heard[ip]
        if silent_for <= threshold:
            continue
        raised = eng._suspect_raised_at.get(ip)
        if raised is None or now - raised >= resuspect_after:
            eng._suspect_raised_at[ip] = now
            eng._m_suspects.inc()
            eng.on_suspect(ip)
    if eng.monitored and all(now - t > p.orphan_timeout for t in eng.last_heard.values()):
        if eng._silence_raised_at is None or now - eng._silence_raised_at >= p.orphan_timeout:
            eng._silence_raised_at = now
            eng._m_silence.inc()
            eng.on_total_silence()


# ages as multiples of the thresholds they are compared with, so every run
# lands cases exactly on, just inside and just outside both of them
_age = st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 0.5, 1.0, 1.5]))


@settings(max_examples=300, deadline=None)
@given(
    interval=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    miss=st.integers(1, 5),
    orphan=st.sampled_from([0.2, 1.0, 5.0, 12.5]),
    ages=st.tuples(_age, _age),
    scale=st.sampled_from(["threshold", "orphan", "seconds"]),
    raised_ago=st.tuples(st.none() | st.floats(0.0, 40.0), st.none() | st.floats(0.0, 40.0)),
    silence_ago=st.none() | st.floats(0.0, 40.0),
    mode=st.sampled_from(["bidirectional", "unidirectional"]),
)
def test_property_check_shortcut_raises_exactly_what_the_full_body_does(
    interval, miss, orphan, ages, scale, raised_ago, silence_ago, mode
):
    unit = {"threshold": miss * interval, "orphan": orphan, "seconds": 1.0}[scale]
    outcomes = []
    for check in (RingHeartbeat._check, _check_without_shortcut):
        sim, _, _, eng, suspects, silences = make_engine(
            4, mode=mode, hb_interval=interval, hb_miss_threshold=miss, orphan_timeout=orphan
        )
        eng.stop()
        sim.now = now = 100.0
        for ip, age, ago in zip(sorted(eng.monitored, key=int), ages, raised_ago):
            eng.last_heard[ip] = now - age * unit
            if ago is not None:
                eng._suspect_raised_at[ip] = now - ago
        eng._silence_raised_at = None if silence_ago is None else now - silence_ago
        check(eng)
        outcomes.append((
            suspects, silences, eng._suspect_raised_at, eng._silence_raised_at,
            eng._m_suspects.value, eng._m_silence.value,
        ))
    assert outcomes[0] == outcomes[1]
