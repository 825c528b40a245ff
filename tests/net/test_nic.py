"""Adapter failure modes, the loopback self-test, and the batched send."""

import pytest

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.nic import NIC, NicState
from repro.net.packet import Frame
from repro.sim.engine import Simulator


@pytest.fixture
def pair():
    sim = Simulator()
    fab = Fabric(sim)
    a = NIC(IPAddress("10.0.0.1"), "a", 0)
    b = NIC(IPAddress("10.0.0.2"), "b", 0)
    fab.attach(a, "sw", 1)
    fab.attach(b, "sw", 1)
    inbox = []
    b.handler = inbox.append
    return sim, a, b, inbox


def test_ok_adapter_sends_and_receives(pair):
    sim, a, b, inbox = pair
    assert a.send(b.ip, "x")
    sim.run()
    assert len(inbox) == 1
    assert a.sent == 1 and b.received == 1


def test_fail_send_blocks_transmit_allows_receive(pair):
    sim, a, b, inbox = pair
    a.fail(NicState.FAIL_SEND)
    assert not a.send(b.ip, "x")
    sim.run()
    assert inbox == []
    # but a still receives
    got = []
    a.handler = got.append
    b.send(a.ip, "y")
    sim.run()
    assert len(got) == 1


def test_fail_recv_blocks_receive_allows_send(pair):
    """The §3 case: the adapter 'ceases to receive messages from the
    network' while still transmitting — the one that gets the left
    neighbour falsely blamed."""
    sim, a, b, inbox = pair
    b.fail(NicState.FAIL_RECV)
    a.send(b.ip, "x")
    sim.run()
    assert inbox == []
    assert b.send(a.ip, "y")


def test_fail_full_blocks_both(pair):
    sim, a, b, inbox = pair
    a.fail(NicState.FAIL_FULL)
    assert not a.send(b.ip, "x")
    got = []
    a.handler = got.append
    b.send(a.ip, "y")
    sim.run()
    assert got == []


def test_disable_blocks_both(pair):
    sim, a, b, inbox = pair
    a.disable()
    assert not a.can_send and not a.can_receive
    assert a.state is NicState.DISABLED


def test_repair_restores(pair):
    sim, a, b, inbox = pair
    a.fail(NicState.FAIL_FULL)
    a.repair()
    assert a.send(b.ip, "x")
    sim.run()
    assert len(inbox) == 1


def test_loopback_test_semantics(pair):
    sim, a, b, _ = pair
    assert a.loopback_test()
    a.fail(NicState.FAIL_RECV)
    assert not a.loopback_test()
    a.repair()
    a.fail(NicState.FAIL_SEND)
    assert not a.loopback_test()
    a.repair()
    assert a.loopback_test()


def test_fail_requires_failure_mode(pair):
    _, a, _, _ = pair
    with pytest.raises(ValueError):
        a.fail(NicState.OK)
    with pytest.raises(ValueError):
        a.fail(NicState.DISABLED)


def test_state_checked_at_delivery_time(pair):
    """A frame in flight is dropped if the receiver fails before arrival."""
    sim, a, b, inbox = pair
    a.send(b.ip, "x")
    b.fail(NicState.FAIL_FULL)  # after send, before delivery event
    sim.run()
    assert inbox == []


def test_unattached_nic_cannot_send():
    nic = NIC(IPAddress("10.0.0.1"), "solo", 0)
    with pytest.raises(RuntimeError):
        nic.send(IPAddress("10.0.0.2"), "x")


def test_name_and_repr(pair):
    _, a, _, _ = pair
    assert a.name == "a/eth0"
    assert "10.0.0.1" in repr(a)


def _sender_in(case):
    """A sender ``a`` and two receivers on one segment, ``a`` put in
    ``case``: a NIC state, an unattached port, or a failed switch."""
    sim = Simulator()
    fab = Fabric(sim)
    a, b, c = (NIC(IPAddress(f"10.0.0.{i}"), name, 0) for i, name in ((1, "a"), (2, "b"), (3, "c")))
    for nic in (a, b, c):
        fab.attach(nic, "sw-a" if nic is a else "sw-b", 1)
    if isinstance(case, NicState):
        if case is NicState.DISABLED:
            a.disable()
        elif case is not NicState.OK:
            a.fail(case)
    elif case == "unattached":
        a.port.vlan = None
    else:
        fab.switches["sw-a"].fail()
    return sim, fab, a, (b, c)


@pytest.mark.parametrize("case", [*NicState, "unattached", "switch"],
                         ids=lambda c: getattr(c, "value", c))
def test_send_frames_is_one_send_per_frame(case):
    """``send_frames`` leaves what one ``send`` per frame leaves: the
    sender's counters, the trace counters, the segment's statistics and
    the receivers' inboxes."""
    outcomes = []
    for batched in (False, True):
        sim, fab, a, receivers = _sender_in(case)
        inbox = []
        for nic in receivers:
            nic.handler = inbox.append
        frames = [Frame(a.ip, nic.ip, "hb", 64) for nic in receivers]
        if batched:
            ok = a.send_frames(frames)
        else:
            ok = all([a.send(f.dst, f.payload, f.size) for f in frames])
        sim.run()
        seg = fab.segments[1]
        outcomes.append((
            ok, a.sent, a.send_drops, dict(sim.trace.counters), inbox,
            seg.frames_sent, seg.frames_delivered, seg.bytes_sent, dict(seg.drop_causes),
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] is (case in (NicState.OK, NicState.FAIL_RECV))
