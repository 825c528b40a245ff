"""Lazy ≡ eager beacon reception: byte-identical simulations.

A BEACON received by an adapter that is not an AMG leader costs no engine
event: ``AdapterProtocol.receive`` charges the host's OS model on arrival
and parks the beacon in a backlog that is folded in before anything can
observe the difference (docs/PROTOCOL.md §8). On a healthy fixed-latency
segment it costs no delivery either: the multicast is logged once and each
host's OS model bills it later, in one catch-up. Both layers are switched
off together for the oracle — one scheduled ``on_frame`` event per received
frame, delivered per receiver — which survives only here: every scenario
below runs under both and must produce the same trace records, notification
history, segment statistics and metrics dump. The only things allowed to
differ are the ones that *count engine events*: ``events_executed`` /
``sim.events.dispatched`` and the ``sim.queue.*`` gauges.

The unit tests beside the differential runs pin the parts of the
equivalence argument one at a time: the ``(finish, seq)`` tie rule, the
memory bound, the materialised tail on a transition into LEADER, and
stop/restart/move with beacons still in the backlog.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks import InvariantMonitor
from repro.checks.campaign import CHAOS_PARAMS, ChaosInjector, oceano_spec
from repro.checks.invariants import CheckWindows
from repro.farm.builder import build_farm, build_zoned_farm
from repro.gulfstream.adapter_proto import AdapterProtocol, AdapterState
from repro.gulfstream.amg import AMGView
from repro.gulfstream.daemon import GulfStreamDaemon
from repro.gulfstream.messages import Beacon, MemberInfo
from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.loss import LinkQuality
from repro.net.nic import NicState
from repro.net.packet import Frame
from repro.net.segment import Segment
from repro.node.faults import FaultPlan
from repro.node.host import Host
from repro.node.osmodel import OSParams
from repro.sim.engine import Simulator

from tests.conftest import FAST, make_flat_farm, run_stable
from tests.integration.test_golden_trace import PARAMS as GOLDEN_PARAMS, SPEC as GOLDEN_SPEC

OS = {"ideal": OSParams.ideal(), "fast": OSParams.fast(), "default": OSParams()}
LINKS = {"lossless": None, "lossy": LinkQuality(loss_probability=0.02)}

#: instruments that count engine events rather than simulated behaviour
_ENGINE_METRICS = ("sim.events.dispatched", "sim.queue.depth", "sim.queue.dead")


def _eager_receive(self, frame):
    """The pre-lazy NIC handler: one engine event per received frame."""
    self.os.handle(self.on_frame, frame)


def _use_eager_oracle(setattr_):
    """Switch both lazy layers off through ``setattr_`` (a monkeypatch's, or
    plain ``setattr`` in a spawned worker): every frame is delivered per
    receiver, and each delivery is one engine event."""
    setattr_(AdapterProtocol, "receive", _eager_receive)
    setattr_(Segment, "_deliver_record", Segment._deliver_each)


def _records(trace):
    return [(r.time, r.category, r.source, repr(sorted(r.data.items()))) for r in trace.records]


def _farm_print(farm, **extra):
    """Everything a farm run exposes, events apart."""
    return {
        "clock": farm.sim.now,
        "counters": dict(farm.sim.trace.counters),
        "records": _records(farm.sim.trace),
        "history": [
            (n.time, n.kind, n.subject, repr(sorted(n.detail.items())))
            for n in farm.bus.history
        ],
        "segments": {
            vlan: (seg.frames_sent, seg.frames_delivered, seg.frames_lost, seg.bytes_sent)
            for vlan, seg in sorted(farm.fabric.segments.items())
        },
        "metrics": {
            key: value for key, value in farm.sim.metrics.snapshot().items()
            if not key.startswith(_ENGINE_METRICS)
        },
        "events": farm.sim.events_executed,
        **extra,
    }


def _assert_lazy_equals_eager(monkeypatch, run, saves_events=True):
    """``run()`` -> fingerprint dict with an ``"events"`` entry."""
    lazy = run()
    with monkeypatch.context() as patch:
        _use_eager_oracle(patch.setattr)
        eager = run()
    # guards the guard: the oracle really is the event-per-frame path
    # (a hand-fed beacon that ends up materialised saves nothing)
    saved = eager.pop("events") - lazy.pop("events")
    assert saved > 0 if saves_events else saved == 0
    for key in eager:
        assert lazy[key] == eager[key], f"{key} diverged between lazy and eager reception"


# ----------------------------------------------------------------------
# differential runs: golden Océano scenario, chaos corpus, fault programs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("os_name", sorted(OS))
def test_golden_oceano_scenario(monkeypatch, os_name, link):
    """The golden-trace scenario (discovery, a node crash, 30 s more)."""

    def run():
        farm = build_farm(
            GOLDEN_SPEC, seed=2001, params=GOLDEN_PARAMS,
            os_params=OS[os_name], quality=LINKS[link],
        )
        farm.start()
        run_stable(farm)
        farm.hosts["acme-be-0"].crash()
        farm.sim.run(until=farm.sim.now + 30.0)
        return _farm_print(farm)

    _assert_lazy_equals_eager(monkeypatch, run)


def _chaos_print(mix, seed, os_params, quality, nodes, duration):
    """``run_chaos_case`` with the OS model and link quality as parameters,
    a full stored trace, and the farm's artifacts instead of a row."""
    farm = build_farm(
        oceano_spec(nodes), seed=seed, params=CHAOS_PARAMS, os_params=os_params,
        quality=quality,
    )
    windows = CheckWindows.from_params(farm.params, os_params)
    monitor = InvariantMonitor(farm, windows=windows)
    farm.start()
    assert farm.run_until_stable(timeout=180.0) is not None
    monitor.start()
    injector = ChaosInjector(farm, mix)
    heal_at = injector.plan(start=farm.sim.now + 1.0, duration=duration)
    farm.sim.run(until=heal_at + windows.settle_time)
    monitor.finalize()
    return _farm_print(farm, monitor=monitor.summary(), faults=sorted(injector.counts.items()))


@pytest.mark.slow
@pytest.mark.parametrize(
    "mix,seed",
    [("mixed", 7105910197032038905), ("leader", 1), ("partition", 2)],
)
def test_chaos_corpus(monkeypatch, mix, seed):
    """The committed corpus replays (oceano55, 40 s), monitor on."""
    _assert_lazy_equals_eager(
        monkeypatch,
        lambda: _chaos_print(mix, seed, OS["fast"], None, nodes=55, duration=40.0),
    )


@pytest.mark.slow
@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("os_name", sorted(OS))
@pytest.mark.parametrize("mix", ["mixed", "leader", "partition"])
def test_chaos_mixes_by_os_model_and_link(monkeypatch, mix, os_name, link):
    """Every corpus mix at every OS model, lossless and lossy (oceano20)."""
    _assert_lazy_equals_eager(
        monkeypatch,
        lambda: _chaos_print(mix, 11, OS[os_name], LINKS[link], nodes=20, duration=20.0),
    )


# ----------------------------------------------------------------------
# whole fault programs on the ZONED farm (two zones, two management nodes)
# ----------------------------------------------------------------------
#: 2 zones x 3 nodes, three data VLANs per zone
ZONED = dict(
    n_zones=2, nodes_per_zone=3, seed=77, params=FAST, os_params=OSParams.fast()
)
ZONE0_VLAN = 20
ZONE1_VLAN = 23  # vlans_per_zone defaults to 3

_NODES = [f"z{z}-n{i}" for z in range(2) for i in range(3)]

_action = st.one_of(
    st.tuples(st.just("crash"), st.sampled_from(_NODES)),
    st.tuples(st.just("crash_restart"), st.sampled_from(_NODES)),
    st.tuples(
        st.just("flap"),
        st.sampled_from(_NODES),
        st.sampled_from([NicState.FAIL_FULL, NicState.FAIL_SEND, NicState.FAIL_RECV]),
    ),
    st.tuples(st.just("split"), st.sampled_from([ZONE0_VLAN, ZONE1_VLAN])),
    st.tuples(st.just("switch"), st.just("switch-0")),
)


def _vlan_groups(farm, vlan, split_at):
    """Partition groups (adapter IP strings) for every member of ``vlan``,
    in build order."""
    members = [
        str(nic.ip)
        for host in farm.hosts.values()
        for nic in host.adapters
        if nic.port.vlan == vlan
    ]
    return [members[:split_at], members[split_at:]]


def _compile(program):
    """Deterministically schedule a drawn program over (12.5s, 16.5s)."""
    plan = FaultPlan()
    farm = build_zoned_farm(**ZONED)
    for i, action in enumerate(program):
        t = 12.5 + i * 0.8
        kind = action[0]
        if kind == "crash":
            plan.crash_node(t, action[1])
        elif kind == "crash_restart":
            plan.crash_node(t, action[1]).restart_node(t + 1.7, action[1])
        elif kind == "flap":
            ip = str(farm.hosts[action[1]].adapters[0].ip)
            plan.fail_adapter(t, ip, mode=action[2]).repair_adapter(t + 1.3, ip)
        elif kind == "split":
            vlan = action[1]
            plan.partition(t, vlan, _vlan_groups(farm, vlan, split_at=1)).heal(t + 1.9, vlan)
        else:
            plan.fail_switch(t, action[1]).repair_switch(t + 1.1, action[1])
    return plan


def _zoned_run(plan, duration=21.0, **overrides):
    """The ZONED farm with ``plan`` armed, waited on for GSC stability and
    run to ``duration``: ``(farm, stability time)``."""
    farm = build_zoned_farm(**{**ZONED, **overrides})
    plan.arm(farm.sim, farm.fabric, farm.hosts)
    farm.start()
    stable = farm.run_until_stable(timeout=duration)
    farm.sim.run(until=duration)
    gsc = farm.gsc()
    return farm, gsc.stable_time if gsc else stable


def _zoned_print(os_name, plan, duration=21.0):
    farm, stable = _zoned_run(plan, duration, os_params=OS[os_name])
    return _farm_print(farm, stable=stable)


@pytest.mark.slow
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(_action, min_size=1, max_size=4), st.sampled_from(sorted(OS)))
def test_differential_random_fault_programs(program, os_name):
    """Whole fault programs — crashes, restarts, NIC flaps in each failure
    mode, VLAN splits and switch outages — on the ZONED farm."""
    plan = _compile(program)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_lazy_equals_eager(monkeypatch, lambda: _zoned_print(os_name, plan))


# ----------------------------------------------------------------------
# unit tests: one adapter, hand-fed beacons
# ----------------------------------------------------------------------
#: a long beacon phase, so nothing happens to the lone adapter on its own
LONE = FAST.derive(beacon_duration=50.0, form_timeout=50.0)


def _lone_adapter(os_params, until=0.25):
    """One booted daemon with one adapter (10.0.0.1) alone on its segment."""
    sim = Simulator(seed=5)
    fabric = Fabric(sim)
    host = Host(sim, "solo", os_params=os_params)
    host.add_adapter(IPAddress("10.0.0.1"), fabric, "sw", 1)
    daemon = GulfStreamDaemon(host, fabric, params=LONE)
    daemon.start()
    sim.run(until=until)
    proto = daemon.protocols[0]
    assert proto.state is AdapterState.BEACONING
    return sim, proto


def _beacon(last_octet, epoch=0):
    ip = IPAddress(f"10.0.0.{last_octet}")
    info = MemberInfo(ip=ip, node=f"n{last_octet}", adapter_index=0, admin_eligible=False)
    return Frame(ip, IPAddress("10.0.0.1"), Beacon(info=info, epoch=epoch))


@pytest.mark.parametrize("form_first", [True, False])
def test_same_instant_tie_with_form_group(monkeypatch, form_first):
    """``OSParams.ideal()``: a beacon finishes at its arrival instant and
    ties with a ``_form_group`` due at that instant. The event that would
    have handled it sorts by the sequence number reserved at arrival —
    after a timer scheduled before the frame arrived, before one scheduled
    later — and the backlog must count it (or not) accordingly."""
    seen = []

    def run():
        sim, proto = _lone_adapter(OS["ideal"])

        def flush():  # stands in for Segment._flush delivering to the NIC
            proto.nic.handler(_beacon(9))
            if not form_first:
                sim.schedule(0.0, proto._form_group)
            # scheduled after the beacon's slot was reserved: must still
            # fire after it when the beacon is materialised later on
            sim.schedule(0.0, proto.trace, "test.marker")

        sim.schedule_at(1.0, flush)
        if form_first:
            # queued behind the flush, ahead of the seq the flush reserves
            sim.schedule_at(1.0, proto._form_group)
        sim.run(until=2.0)
        end = next(r for r in sim.trace.records if r.category == "gs.phase.end")
        order = [r.category for r in sim.trace.records
                 if r.category in ("gs.join.seen", "test.marker")]
        seen.append((end.data["peers"], proto.state, order))
        return {"records": _records(sim.trace), "peers": sorted(map(str, proto.peers)),
                "events": sim.events_executed}

    _assert_lazy_equals_eager(monkeypatch, run, saves_events=not form_first)
    if form_first:
        # formed alone; the beacon's own event came after, found a leader,
        # and kept its place ahead of the marker
        assert seen[0] == (0, AdapterState.LEADER, ["gs.join.seen", "test.marker"])
    else:
        assert seen[0] == (1, AdapterState.WAIT_FORM, ["test.marker"])
    assert seen[0] == seen[1]


def test_wait_form_to_leader_materialises_unfinished_tail(monkeypatch):
    """Three beacons queue 3 ms apart behind a busy daemon; the adapter
    becomes LEADER after the first has finished. That one was collected as
    a peer; the other two must fire as leader-side events at exactly the
    times the eager events had — ``now + (finish - now)``, which this early
    in the run is an ulp off ``finish`` for the third."""
    busy = OSParams(boot_delay=(0.0, 0.0), beacon_stagger=(0.0, 0.0),
                    proc_delay=(0.003, 0.003), phase_lag=(0.0, 0.0))
    joins = []

    def run():
        sim, proto = _lone_adapter(busy, until=0.0)
        proto.state = AdapterState.WAIT_FORM
        lazy = AdapterProtocol.receive is not _eager_receive

        def arrive():
            for octet in (7, 8, 9):
                proto.nic.handler(_beacon(octet, epoch=3))
            assert len(proto._backlog) == (3 if lazy else 0)

        def lead():
            proto._absorb()  # what the state change folds in first
            assert sorted(map(str, proto.peers)) == ["10.0.0.7"]
            proto._install_view(AMGView.build([proto.my_info()], 1), "formation")
            assert proto.state is AdapterState.LEADER
            assert not proto._backlog
            assert not proto.peers  # the beacon phase is over

        sim.schedule_at(0.001, arrive)
        sim.schedule_at(0.0055, lead)
        sim.run(until=0.5)
        joins.append([
            (r.time, r.data["who"]) for r in sim.trace.records if r.category == "gs.join.seen"
        ])
        return {"records": _records(sim.trace), "floor": proto._epoch_floor,
                "events": sim.events_executed}

    _assert_lazy_equals_eager(monkeypatch, run)
    assert joins[0] == [(0.007, "10.0.0.8"), (0.010000000000000002, "10.0.0.9")]
    assert 0.007 + 0.003 == 0.01  # the third beacon's finish time, not its event's


def test_next_epoch_counts_a_finished_beacon_still_in_the_backlog():
    sim, proto = _lone_adapter(OS["fast"])
    proto.nic.handler(_beacon(9, epoch=41))
    sim.run(until=sim.now + 0.1)  # handled by now, but nothing has looked yet
    assert len(proto._backlog) == 1 and proto._epoch_floor == 0
    assert proto._next_epoch() == 42


def test_stop_discards_backlog():
    sim, proto = _lone_adapter(OS["fast"])
    proto.nic.handler(_beacon(9))
    assert len(proto._backlog) == 1
    proto.stop()
    assert not proto._backlog and not proto.peers


def test_member_backlog_stays_bounded_over_600s():
    """A MEMBER hears its leader's beacon every interval, forever, and never
    changes state: arrivals must drop the finished head, or the backlog (and
    RSS) grows without bound. The same holds for the segment's multicast
    log: the records every member has taken must go."""
    farm = make_flat_farm(4, seed=3)
    run_stable(farm)
    segments = farm.fabric.segments.values()
    worst = worst_log = logged = 0
    end = farm.sim.now + 600.0
    while farm.sim.now < end:
        farm.sim.run(until=farm.sim.now + 7.3)
        backlogs = [
            len(p._backlog)
            for d in farm.daemons.values()
            for p in d.protocols.values()
            if p.state is AdapterState.MEMBER
        ]
        assert backlogs, "the farm must have members"
        worst = max(worst, *backlogs)
        worst_log = max(worst_log, *(len(seg._log) for seg in segments))
    logged = sum(seg.logged for seg in segments)
    # one leader per segment: at most its last beacon and the one in flight
    assert 1 <= worst <= 2
    # ≈ 600 leader beacons per segment were logged; at most one trim's worth stays
    assert logged > 4 * Segment.LOG_TRIM
    assert 1 <= worst_log <= Segment.LOG_TRIM


# ----------------------------------------------------------------------
# stop/restart and a live move while beacons sit in the backlog
# ----------------------------------------------------------------------
def _pending_beacons(proto):
    """Beacons delivered to ``proto`` and not handled yet: logged on its
    segment and not billed, or billed and waiting in the backlog."""
    nic, logged = proto.nic, 0
    if nic.cursor is not None:
        seg = nic.segment
        logged = sum(
            sender is not nic
            for _when, _base, _msg, _snap, sender in seg._log[len(seg._log) - (seg.logged - nic.cursor):]
        )
    return logged + len(proto._backlog)


def test_restart_during_beacon_phase_with_backlog(monkeypatch):
    """Crash + restart a node mid-discovery, when every adapter's backlog
    holds collected-but-unfolded beacons."""
    backlog_at_crash = []

    def run():
        farm = make_flat_farm(5, seed=8, os_params=OS["default"])
        farm.sim.run(until=1.2)
        victim = farm.hosts["node-3"]
        backlog_at_crash.append(
            sum(_pending_beacons(p) for p in victim.daemon.protocols.values())
        )
        victim.crash()
        farm.sim.run(until=1.9)
        victim.restart()
        run_stable(farm)
        farm.sim.run(until=farm.sim.now + 10.0)
        return _farm_print(farm)

    _assert_lazy_equals_eager(monkeypatch, run)
    assert backlog_at_crash[0] > 0 and backlog_at_crash[1] == 0


def test_live_domain_move_with_backlog(monkeypatch):
    """Move a MEMBER adapter to another VLAN while its leader's last beacon
    is still pending (logged or backlogged); it must orphan, self-promote
    and merge into the target domain exactly as on the eager path."""
    from tests.gulfstream.test_reconfig import build_two_domain_farm, moved_proto

    backlog_at_move, move_at = [], []

    def run():
        farm = build_two_domain_farm(4)
        mover = next(
            p
            for d in farm.daemons.values()
            for p in d.protocols.values()
            if p.nic.port.vlan == 2 and p.state is AdapterState.MEMBER
        )
        if not move_at:  # the lazy run finds the instant, the oracle replays it
            for _ in range(1000):
                if _pending_beacons(mover):
                    break
                farm.sim.run(until=farm.sim.now + 0.005)
            move_at.append(farm.sim.now)
        farm.sim.run(until=move_at[0])
        backlog_at_move.append(_pending_beacons(mover))
        farm.reconfig().move_adapter(mover.ip, 3)
        farm.sim.run(until=farm.sim.now + 40.0)
        assert moved_proto(farm, mover.ip).view.size == 4
        assert farm.bus.count("move_completed") == 1
        return _farm_print(farm)

    _assert_lazy_equals_eager(monkeypatch, run)
    assert backlog_at_move == [1, 0]
