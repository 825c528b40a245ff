"""Cross-shard channel: stamping, sequencing, deterministic merge."""

import pickle

from repro.farm.requests import Request, Response, Work, WorkDone
from repro.gulfstream import messages
from repro.gulfstream.hierarchy import AggregatedReport
from repro.gulfstream.messages import (
    Beacon, Commit, GroupHint, Heartbeat, MembershipReport, MergeInfo, MergeRequest,
    Prepare, PrepareAck, Probe, ProbeAck, ReportAck, SelfFault, SubgroupPoll,
    SubgroupPollAck, Suspect, SuspectAck,
)
from repro.gulfstream.two_phase import CommitCoordinator
from repro.net.addressing import MULTICAST, IPAddress
from repro.net.packet import Frame
from repro.sim.engine import Simulator
from repro.sim.shard import CutMessage, ShardGateway, merge_inbox

from tests.gulfstream.test_two_phase import StubProto, mi


def _frame(n=0):
    return Frame(src=IPAddress(0x0A000001), dst=IPAddress(0x0A000002), payload=n)


def _msg(deliver_time, src_island, seq):
    return CutMessage(
        deliver_time=deliver_time,
        src_island=src_island,
        seq=seq,
        dst_island=0,
        vlan=1,
        src_switch="sw-0",
        frame=_frame(),
    )


def test_merge_inbox_orders_by_time_then_island_then_seq():
    msgs = [
        _msg(2.0, 1, 0),
        _msg(1.0, 2, 5),
        _msg(1.0, 1, 9),
        _msg(1.0, 1, 3),
    ]
    merged = merge_inbox(msgs)
    assert [m.merge_key for m in merged] == [
        (1.0, 1, 3), (1.0, 1, 9), (1.0, 2, 5), (2.0, 1, 0),
    ]
    # a pure function of the messages: any arrival permutation merges alike
    assert merge_inbox(reversed(msgs)) == merged


def test_gateway_stamps_deliver_time_one_lookahead_ahead():
    sim = Simulator()
    gw = ShardGateway(island_id=3, lookahead=0.25, sim=sim)
    sim.schedule(2.0, gw.send, 1, _frame(), "sw-0", 0)
    sim.run()
    (msg,) = gw.drain()
    assert msg.deliver_time == 2.25
    assert msg.src_island == 3 and msg.dst_island == 0


def test_gateway_seq_is_monotonic_across_drains():
    gw = ShardGateway(island_id=0, lookahead=0.1, sim=Simulator())
    gw.send(1, _frame(), None, 1)
    gw.send(1, _frame(), None, 2)
    first = gw.drain()
    assert gw.drain() == []  # drain clears
    gw.send_multi(1, _frame(), None, [1, 2])
    second = gw.drain()
    assert [m.seq for m in first + second] == [0, 1, 2, 3]
    assert [m.dst_island for m in second] == [1, 2]
    assert gw.sent == 4


def test_cut_payload_of_a_commit_is_its_wire_fields():
    """``Commit``/``Prepare`` cache what receivers derive from them (the
    committed view, the proposed IP set). None of it may ride along through
    a pipe: a message with its caches filled pickles to the bytes of a fresh
    one, and the island that receives an epoch's batch from another process
    gets one cache-free payload for all of its members. (Islands of one
    process hand the message over as it is, caches and all: what the
    receiver would derive is what the sender already did.)"""
    members = tuple(mi(f"10.0.0.{i}") for i in (3, 2, 1))
    fields = dict(coordinator=members[0].ip, epoch=4, members=members, reason="death",
                  group_key="10.0.0.3@1")
    for cls, derived in ((Commit, "view"), (Prepare, "member_ips")):
        fresh, used = cls(**fields), cls(**fields)
        getattr(used, derived, None)  # fills the cache, where there is one
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(used)) == fresh

    # the commit a coordinator sends carries the view it built, by reference
    proto, committed = StubProto(Simulator(), "10.0.0.3"), []
    coordinator = CommitCoordinator(proto, members, 4, "death", committed.append,
                                    group_key="10.0.0.3@1")
    for m in members[1:]:
        coordinator.on_prepare_ack(PrepareAck(m.ip, proto.ip, 4, ok=True))
    commit = next(p for _, p in proto.sent if isinstance(p, Commit))
    assert getattr(commit, "view", committed[0]) is committed[0]
    fresh = Commit(commit.coordinator, commit.epoch, commit.members, commit.reason,
                   commit.group_key)
    assert pickle.dumps(commit) == pickle.dumps(fresh)
    batch = [
        CutMessage(1.0, 0, seq, 1, 1, "sw-0", Frame(proto.ip, m.ip, commit))
        for seq, m in enumerate(members[1:])
    ]
    first, second = (m.frame.payload for m in pickle.loads(pickle.dumps(batch)))
    assert first is second and first == commit
    assert set(vars(first)) == set(fields)


def test_everything_that_crosses_a_cut_survives_every_pickle_protocol():
    """``shards=1`` hands cut messages over by reference, so a run no longer
    pickles anything on its own; what ``shards>=2`` relies on is pinned here:
    every protocol message, every application message and the ``CutMessage``
    around them comes back ``==`` from each pickle protocol a pipe may use."""
    a, b = IPAddress("10.0.0.3"), IPAddress("10.0.0.2")
    members = (mi("10.0.0.3"), mi("10.0.0.2"))
    report = MembershipReport(a, "10.0.0.3@1", 4, "delta", added=members[1:], removed=(b,),
                              node="n", stable=True, seq=2)
    samples = [
        members[0], Beacon(members[0], True, 4, 2), Prepare(a, 4, members, "join", "10.0.0.3@1"),
        PrepareAck(b, a, 4, False, 5), Commit(a, 4, members, "join", "10.0.0.3@1"),
        Heartbeat(a, 4), Suspect(b, a, 4, 1), SuspectAck(a, b, 1), SelfFault(b, 4),
        Probe(a, 9), ProbeAck(b, 9), GroupHint(a, a, 4, False), MergeRequest(a, 4),
        MergeInfo(b, 3, members[1:]), SubgroupPoll(a, 1, 9), SubgroupPollAck(b, 1, 9),
        ReportAck(a, 2), report, AggregatedReport(a, "zone-0", (report,)),
        Request(7, a), Response(7, b), Work(7, a, b), WorkDone(7, a, b),
    ]
    assert {type(sample).__name__ for sample in samples} >= set(messages.__all__)
    for sample in samples:
        for dst in (b, MULTICAST):
            cut = CutMessage(1.5, 0, 7, 1, 10, "sw-0", Frame(a, dst, sample, 128))
            for protocol in range(2, 6):
                clone = pickle.loads(pickle.dumps(cut, protocol))
                assert type(clone) is CutMessage and clone == cut and clone is not cut
                assert clone.frame.payload == sample and clone.merge_key == (1.5, 0, 7)
