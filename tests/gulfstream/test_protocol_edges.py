"""Adapter-protocol edge cases: dropped members, stale epochs, races."""

import pytest

from repro.gulfstream.adapter_proto import AdapterState
from repro.gulfstream.messages import (
    Commit,
    GroupHint,
    Heartbeat,
    Prepare,
    PrepareAck,
    Suspect,
)
from repro.net.addressing import IPAddress
from repro.net.packet import Frame

from tests.conftest import FAST, make_flat_farm, run_stable

HB = FAST.derive(hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                 takeover_stagger=0.5, suspect_retry_interval=0.5)


def vlan_protos(farm, vlan):
    return {
        str(p.ip): p
        for d in farm.daemons.values()
        for p in d.protocols.values()
        if p.nic.port is not None and p.nic.port.vlan == vlan
    }


def leader_of(farm, vlan):
    return next(p for p in vlan_protos(farm, vlan).values()
                if p.state is AdapterState.LEADER)


def deliver(proto, payload, src="10.9.9.9"):
    """Push a crafted frame straight into the protocol's dispatcher."""
    proto.on_frame(Frame(IPAddress(src), proto.ip, payload))


def test_group_hint_triggers_rejoin_of_dropped_member():
    """A member dropped by a lost PrepareAck learns it via GroupHint and
    self-promotes to rejoin (the paper's footnote-1 'confused membership'
    case, made deterministic)."""
    farm = make_flat_farm(5, seed=1, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    victim = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER)
    hint = GroupHint(sender=leader.ip, leader=leader.ip, epoch=leader.epoch,
                     member=False)
    t0 = farm.sim.now
    deliver(victim, hint, src=str(leader.ip))
    # immediately becomes its own (singleton) leader and starts beaconing
    assert victim.state is AdapterState.LEADER
    assert victim.view.size == 1
    farm.sim.run(until=t0 + 30)
    # ... and is merged straight back into the big group
    assert victim.view.size == 5


def test_group_hint_from_non_leader_ignored():
    farm = make_flat_farm(4, seed=2, params=HB)
    run_stable(farm)
    victim = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER)
    bogus = GroupHint(sender=IPAddress("10.9.9.9"), leader=IPAddress("10.9.9.9"),
                      epoch=99, member=False)
    deliver(victim, bogus)
    assert victim.state is AdapterState.MEMBER  # unmoved


def test_stale_commit_rejected():
    farm = make_flat_farm(4, seed=3, params=HB)
    run_stable(farm)
    member = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER)
    view_before = member.view
    stale = Commit(coordinator=view_before.leader_ip, epoch=view_before.epoch - 1,
                   members=view_before.members[:2], reason="death",
                   group_key=view_before.group_key)
    deliver(member, stale)
    assert member.view is view_before


def test_commit_not_including_me_ignored():
    farm = make_flat_farm(4, seed=4, params=HB)
    run_stable(farm)
    member = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER)
    others = tuple(m for m in member.view.members if m.ip != member.ip)
    foreign = Commit(coordinator=others[0].ip, epoch=member.epoch + 5,
                     members=others, reason="death", group_key="x@1")
    deliver(member, foreign)
    assert member.view.contains(member.ip)
    assert member.epoch < member.view.epoch + 5


def test_prepare_with_lower_epoch_nacked_with_hint():
    farm = make_flat_farm(4, seed=5, params=HB)
    run_stable(farm)
    member = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER)
    sent = []
    member.send = lambda dst, payload, size=None: sent.append((dst, payload)) or True
    low = Prepare(coordinator=IPAddress("10.9.9.9"), epoch=0,
                  members=member.view.members, reason="merge", group_key="x@1")
    deliver(member, low)
    acks = [p for (_, p) in sent if isinstance(p, PrepareAck)]
    assert len(acks) == 1
    assert not acks[0].ok
    assert acks[0].current_epoch >= member.epoch


def test_leader_resends_commit_to_stale_reporter():
    """A Suspect carrying an old epoch reveals the reporter missed a
    commit; the leader re-syncs it."""
    farm = make_flat_farm(4, seed=6, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    reporter = next(m.ip for m in leader.view.members if m.ip != leader.ip)
    suspect_target = next(m.ip for m in leader.view.members
                          if m.ip not in (leader.ip, reporter))
    sent = []
    real_send = leader.send
    leader.send = lambda dst, payload, size=None: sent.append((dst, payload)) or real_send(dst, payload, size=size)
    old = Suspect(reporter=reporter, suspect=suspect_target,
                  epoch=leader.epoch - 1, seq=1)
    deliver(leader, old, src=str(reporter))
    commits = [p for (dst, p) in sent if isinstance(p, Commit) and dst == reporter]
    assert len(commits) == 1
    assert commits[0].epoch == leader.epoch


def test_suspect_about_non_member_answered_with_hint():
    farm = make_flat_farm(4, seed=7, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    sent = []
    real_send = leader.send
    leader.send = lambda dst, payload, size=None: sent.append((dst, payload)) or real_send(dst, payload, size=size)
    stranger = IPAddress("10.9.9.9")
    msg = Suspect(reporter=stranger, suspect=leader.view.members[1].ip,
                  epoch=leader.epoch, seq=1)
    deliver(leader, msg, src=str(stranger))
    hints = [p for (_, p) in sent if isinstance(p, GroupHint)]
    assert len(hints) == 1 and hints[0].member is False


def test_suspicion_of_leader_by_itself_ignored():
    farm = make_flat_farm(4, seed=8, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    msg = Suspect(reporter=leader.view.members[1].ip, suspect=leader.ip,
                  epoch=leader.epoch, seq=1)
    deliver(leader, msg, src=str(leader.view.members[1].ip))
    farm.sim.run(until=farm.sim.now + 10)
    # leader doesn't declare itself dead
    assert leader.state is AdapterState.LEADER
    assert leader.view.contains(leader.ip)


def test_stopped_protocol_ignores_frames():
    farm = make_flat_farm(3, seed=9, params=HB)
    run_stable(farm)
    proto = next(iter(vlan_protos(farm, 2).values()))
    proto.stop()
    view = proto.view
    deliver(proto, Commit(coordinator=IPAddress("10.9.9.9"), epoch=99,
                          members=(proto.my_info(),), reason="x", group_key="y@9"))
    assert proto.view is view
    assert proto.state is AdapterState.STOPPED


def test_wait_form_falls_back_to_rebeacon():
    """If the expected coordinator never commits us, re-beacon (§2.1
    implementation detail: form_timeout)."""
    farm = make_flat_farm(3, seed=10, params=HB)
    # crash the node that would win leadership of vlan 2 BEFORE its
    # formation 2PC can run, mid-beacon-phase
    # highest ip on vlan 2 belongs to node-2
    farm.sim.run(until=0.8)
    farm.hosts["node-2"].crash()
    farm.sim.run(until=40)
    survivors = [p for p in vlan_protos(farm, 2).values()
                 if not p.host.crashed]
    views = {str(p.view) for p in survivors}
    assert len(views) == 1
    assert survivors[0].view.size == 2
    assert farm.sim.trace.count("gs.form.timeout") >= 1


def test_merge_request_rate_limited():
    farm = make_flat_farm(3, seed=11, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    from repro.gulfstream.messages import Beacon, MemberInfo

    foreign = Beacon(
        info=MemberInfo(ip=IPAddress("10.2.0.1"), node="ghost", adapter_index=1),
        is_leader=True, epoch=1,
    )  # lower IP than the leader, so *we* initiate the merge
    before = farm.sim.trace.count("gs.merge.request")
    deliver(leader, foreign)
    deliver(leader, foreign)
    deliver(leader, foreign)
    assert farm.sim.trace.count("gs.merge.request") == before + 1


def test_resynced_member_keeps_the_group_key():
    """A member that missed a commit is re-sent the leader's current one
    (PROTOCOL.md §5) — group identity included. Without the key the member
    minted "<leader>@<current epoch>" for itself, and a later takeover by it
    would have recommitted the group under that second identity."""
    farm = make_flat_farm(5, seed=12, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    protos = vlan_protos(farm, 2)
    deaf = protos[str(leader.view.members[2].ip)]
    victim = protos[str(leader.view.members[3].ip)]  # deaf's ring neighbour
    key, epoch = leader.view.group_key, leader.epoch
    assert deaf.view.group_key == key
    resyncs = []
    real_send = leader.send

    def spy(dst, payload, size=None):
        if isinstance(payload, Commit) and payload.reason == "resync":
            resyncs.append(dst)
        return real_send(dst, payload, size=size)

    leader.send = spy
    deaf._on_commit = lambda msg: None  # the death recommit never reaches it
    victim.host.crash()
    while leader.epoch == epoch:
        farm.sim.run(until=farm.sim.now + 0.1)
    farm.sim.run(until=farm.sim.now + 0.1)  # the commit it misses is delivered
    del deaf._on_commit
    assert deaf.epoch == epoch and not resyncs
    # pinned at the old epoch, deaf still rings the dead victim: its Suspect
    # carries that epoch, and the leader answers with its current commit
    farm.sim.run(until=farm.sim.now + 10)
    assert resyncs and set(resyncs) == {deaf.ip}
    assert deaf.view.epoch == leader.view.epoch
    assert deaf.view.group_key == leader.view.group_key == key


class _InstantOS:
    """Stands in for the host's OSModel: handling takes no simulated time,
    so the event ``receive`` schedules fires at the instant the frame
    arrived, and the two entry points can be compared at that instant."""

    def charge(self, before=None):
        return 0.0


def _heartbeat_state(proto):
    hb = proto.hb
    return (
        proto._last_leader_contact,
        proto._leader_unreachable,
        dict(proto._hint_sent),
        proto.nic.sent,
        hb and (dict(hb.last_heard), hb.received, dict(hb._suspect_raised_at),
                hb._silence_raised_at),
    )


@pytest.mark.parametrize("case", ["from_leader", "from_stranger", "at_stopped"])
def test_receive_and_on_frame_treat_a_heartbeat_alike(case):
    """``receive`` hands a Heartbeat to its handler without going through
    ``on_frame``'s dispatch; both entries must leave the ring engine, the
    leader-contact bookkeeping and the GroupHint throttle in one state."""
    outcomes = {}
    for entry in ("on_frame", "receive"):
        farm = make_flat_farm(5, seed=1, params=HB)
        run_stable(farm)
        leader = leader_of(farm, 2)
        member = next(p for p in vlan_protos(farm, 2).values()
                      if p.state is AdapterState.MEMBER and leader.ip in p.hb.monitored)
        farm.sim.run(until=farm.sim.now + 0.2)
        member._leader_unreachable = True
        member.hb._suspect_raised_at[leader.ip] = farm.sim.now
        sender = IPAddress("10.9.9.9") if case == "from_stranger" else leader.ip
        if case == "at_stopped":
            member.stop()
        before = _heartbeat_state(member)
        member.os = _InstantOS()
        frame = Frame(sender, member.ip, Heartbeat(sender=sender, epoch=leader.epoch))
        getattr(member, entry)(frame)
        farm.sim.run(until=farm.sim.now)  # the handling event, at this instant
        outcomes[entry] = (before, _heartbeat_state(member))
    assert outcomes["on_frame"] == outcomes["receive"]
    before, after = outcomes["receive"]
    if case == "from_leader":
        assert after[0] > before[0] and after[1] is False  # the leader spoke
        assert after[4][1] == before[4][1] + 1 and not after[4][2]  # heard, suspicion cleared
    elif case == "from_stranger":
        assert after[3] == before[3] + 1 and list(after[2]) == [sender]  # one GroupHint
        assert after[4] == before[4]  # the engine never saw it
    else:
        assert after == before


def test_on_frame_dispatches_on_the_payload_type():
    """The handler is looked up by the payload's type: a subclass is handled
    as its base's kind, and anything unlisted is the application's."""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class TaggedHeartbeat(Heartbeat):
        tag: str = "x"

    farm = make_flat_farm(3, seed=1, params=HB)
    run_stable(farm)
    leader = leader_of(farm, 2)
    member = next(p for p in vlan_protos(farm, 2).values()
                  if p.state is AdapterState.MEMBER and leader.ip in p.hb.monitored)
    heard, app_frames = member.hb.received, []
    member.nic.app_handler = app_frames.append
    deliver(member, TaggedHeartbeat(sender=leader.ip, epoch=leader.epoch), src=str(leader.ip))
    assert member.hb.received == heard + 1 and not app_frames
    deliver(member, "not protocol traffic")
    assert member.hb.received == heard + 1
    assert [f.payload for f in app_frames] == ["not protocol traffic"]
