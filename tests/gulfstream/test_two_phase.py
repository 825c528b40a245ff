"""Two-phase commit unit tests (coordinator driven against a stub protocol)."""

from typing import Any

import pytest

from repro.gulfstream.messages import MemberInfo, Prepare, PrepareAck
from repro.gulfstream.params import GSParams
from repro.gulfstream.two_phase import CommitCoordinator
from repro.net.addressing import IPAddress
from repro.node.osmodel import OSModel, OSParams
from repro.sim.engine import Simulator


def mi(ip):
    return MemberInfo(ip=IPAddress(ip), node="n", adapter_index=0)


class StubProto:
    """Minimal protocol surface the coordinator needs."""

    def __init__(self, sim, ip):
        self.sim = sim
        self.ip = IPAddress(ip)
        self.params = GSParams(twopc_timeout=1.0)
        self.os = OSModel(sim, "n", OSParams.ideal())  # idle unless stalled
        self.sent: list[tuple[IPAddress, Any]] = []

    def send(self, dst, payload, size=None):
        self.sent.append((dst, payload))
        return True

    def trace(self, *a, **k):
        pass


def test_singleton_commit_is_immediate():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.1")
    done = []
    CommitCoordinator(proto, [mi("10.0.0.1")], epoch=1, reason="formation", on_done=done.append)
    assert len(done) == 1
    assert done[0].size == 1 and done[0].epoch == 1
    assert proto.sent == []  # nothing on the wire


def test_all_acks_commit_early():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    members = [mi("10.0.0.1"), mi("10.0.0.2"), mi("10.0.0.3")]
    done = []
    c = CommitCoordinator(proto, members, 1, "formation", done.append)
    prepares = [p for p in proto.sent if isinstance(p[1], Prepare)]
    assert len(prepares) == 2
    for ip in ("10.0.0.1", "10.0.0.2"):
        c.on_prepare_ack(PrepareAck(IPAddress(ip), proto.ip, 1, ok=True))
    assert len(done) == 1
    view = done[0]
    assert view.size == 3 and view.leader_ip == IPAddress("10.0.0.3")
    commits = [p for p in proto.sent if not isinstance(p[1], Prepare)]
    assert len(commits) == 2  # commit to both ackers


def test_silent_member_dropped_at_timeout():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    members = [mi("10.0.0.1"), mi("10.0.0.2"), mi("10.0.0.3")]
    done = []
    c = CommitCoordinator(proto, members, 1, "formation", done.append)
    c.on_prepare_ack(PrepareAck(IPAddress("10.0.0.1"), proto.ip, 1, ok=True))
    sim.run(until=2.0)  # past twopc_timeout; 10.0.0.2 never answered
    assert len(done) == 1
    assert [str(m.ip) for m in done[0].members] == ["10.0.0.3", "10.0.0.1"]


def test_deadline_counts_acks_still_queued_behind_the_daemon():
    """An ack handled after the deadline, behind a daemon that was busy at
    the deadline, is counted: the round resolves when that backlog ends,
    once — work billed after the deadline does not push it further."""
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    members = [mi("10.0.0.1"), mi("10.0.0.2"), mi("10.0.0.3")]
    done = []
    c = CommitCoordinator(proto, members, 1, "formation",
                          lambda view: done.append((sim.now, view)))
    proto.os.stall(1.5)  # the daemon is 0.5 s behind at the 1.0 s deadline
    sim.schedule_at(1.4, c.on_prepare_ack, PrepareAck(IPAddress("10.0.0.1"), proto.ip, 1, ok=True))
    sim.schedule_at(1.45, proto.os.stall, 3.0)
    sim.run(until=5.0)
    assert len(done) == 1
    when, view = done[0]
    assert when == 1.5
    assert [str(m.ip) for m in view.members] == ["10.0.0.3", "10.0.0.1"]


def test_nack_with_hint_retries_at_higher_epoch():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    members = [mi("10.0.0.1"), mi("10.0.0.3")]
    done = []
    c = CommitCoordinator(proto, members, 1, "merge", done.append)
    c.on_prepare_ack(
        PrepareAck(IPAddress("10.0.0.1"), proto.ip, 1, ok=False, current_epoch=5)
    )
    # retried immediately at epoch > 5
    assert c.epoch == 6
    retry = [p for (_, p) in proto.sent if isinstance(p, Prepare) and p.epoch == 6]
    assert len(retry) == 1
    c.on_prepare_ack(PrepareAck(IPAddress("10.0.0.1"), proto.ip, 6, ok=True))
    assert done and done[0].epoch == 6


def test_retry_budget_bounded():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    members = [mi("10.0.0.1"), mi("10.0.0.3")]
    done = []
    c = CommitCoordinator(proto, members, 1, "merge", done.append)
    for _ in range(10):
        if done:
            break
        c.on_prepare_ack(
            PrepareAck(IPAddress("10.0.0.1"), proto.ip, c.epoch, ok=False, current_epoch=c.epoch)
        )
    assert len(done) == 1
    # the persistent nacker is excluded from the final view
    assert [str(m.ip) for m in done[0].members] == ["10.0.0.3"]


def test_stale_ack_ignored():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    done = []
    c = CommitCoordinator(proto, [mi("10.0.0.1"), mi("10.0.0.3")], 4, "join", done.append)
    c.on_prepare_ack(PrepareAck(IPAddress("10.0.0.1"), proto.ip, 3, ok=True))  # old epoch
    assert not done
    sim.run(until=2.0)
    assert done and done[0].size == 1  # the stale ack never counted


def test_cancel_prevents_commit():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    done = []
    c = CommitCoordinator(proto, [mi("10.0.0.1"), mi("10.0.0.3")], 1, "join", done.append)
    c.cancel()
    sim.run(until=5.0)
    assert done == []


def test_coordinator_must_be_member():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    with pytest.raises(ValueError):
        CommitCoordinator(proto, [mi("10.0.0.1")], 1, "join", lambda v: None)


def test_group_key_preserved_across_commit():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    done = []
    CommitCoordinator(
        proto, [mi("10.0.0.3")], 9, "takeover", done.append, group_key="10.0.0.9@1"
    )
    assert done[0].group_key == "10.0.0.9@1"


def test_fresh_group_key_minted_from_leader_and_epoch():
    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    done = []
    CommitCoordinator(proto, [mi("10.0.0.3"), mi("10.0.0.1")], 2, "formation", done.append)
    sim.run(until=2.0)
    assert done[0].group_key == "10.0.0.3@2"


def test_an_ack_costs_the_coordinator_no_pass_over_the_members():
    """How many acks a round waits for is settled when the round starts; an
    ack that does not complete it must not walk the member list again (one
    walk per ack is N² work per commit at the coordinator)."""

    class Walked(tuple):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    sim = Simulator()
    proto = StubProto(sim, "10.0.0.3")
    done = []
    c = CommitCoordinator(
        proto, [mi("10.0.0.1"), mi("10.0.0.2"), mi("10.0.0.3")], 1, "death", done.append
    )
    c.members = Walked(c.members)
    c.on_prepare_ack(PrepareAck(IPAddress("10.0.0.1"), proto.ip, 1, ok=True))
    assert Walked.walks == 0 and not done
    c.on_prepare_ack(PrepareAck(IPAddress("10.0.0.2"), proto.ip, 1, ok=True))
    assert done and done[0].size == 3
