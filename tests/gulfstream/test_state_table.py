"""The adapter protocol's transition table (docs/PROTOCOL.md, "The state
table"): every protocol kind has a row, every deferred callback a timer
row, and a frame whose row excludes the adapter's state reaches no handler."""

import ast
import inspect

import pytest

from repro.gulfstream import adapter_proto, messages
from repro.gulfstream.adapter_proto import (
    _KINDS,
    _LIVE,
    _TIMERS,
    AdapterProtocol,
    AdapterState,
)
from repro.gulfstream.hierarchy import AggregatedReport
from repro.gulfstream.messages import GroupHint, MergeInfo, MergeRequest, SelfFault
from repro.net.addressing import IPAddress
from repro.net.packet import Frame

from tests.conftest import FAST, make_flat_farm, run_stable

#: ``messages.py``'s exports that travel as a frame's payload
PAYLOADS = [
    getattr(messages, name) for name in messages.__all__ if name != "MemberInfo"
] + [AggregatedReport]


@pytest.mark.parametrize("kind", PAYLOADS, ids=lambda k: k.__name__)
def test_every_protocol_kind_has_a_row_whose_handler_exists(kind):
    """A kind with no row would go to the application handler unnoticed."""
    handler, whole_frame, states = _KINDS[kind]
    assert callable(getattr(AdapterProtocol, handler))
    assert isinstance(whole_frame, bool)
    assert states and states <= _LIVE  # a stopped adapter handles nothing


def _later_callbacks():
    """The method names passed to ``self._later`` anywhere in the class."""
    tree = ast.parse(inspect.getsource(adapter_proto))
    return {
        node.args[1].attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_later"
    }


def test_every_deferred_callback_has_a_timer_row():
    callbacks = _later_callbacks()
    assert callbacks == set(_TIMERS)
    for name, states in _TIMERS.items():
        assert callable(getattr(AdapterProtocol, name))
        assert states and states <= _LIVE


def _group(monkeypatch):
    """A stable three-node VLAN: its leader and one member, with the four
    state-gated handlers recorded instead of run."""
    farm = make_flat_farm(3, seed=1, params=FAST)
    run_stable(farm)
    protos = [
        p for d in farm.daemons.values() for p in d.protocols.values()
        if p.nic.port is not None and p.nic.port.vlan == 2
    ]
    leader = next(p for p in protos if p.state is AdapterState.LEADER)
    member = next(p for p in protos if p.state is AdapterState.MEMBER)
    calls = []
    for proto in (leader, member):
        for kind in (MergeRequest, MergeInfo, SelfFault, GroupHint):
            name = _KINDS[kind][0]
            monkeypatch.setattr(
                proto, name, lambda msg, p=proto, n=name: calls.append((p.state, n))
            )
    return leader, member, calls


def _deliver(proto, payload, src):
    proto.on_frame(Frame(src, proto.ip, payload))


def test_a_row_gates_its_handler_by_state(monkeypatch):
    """MergeRequest, MergeInfo and SelfFault are a leader's, GroupHint a
    member's: delivered in the other role they reach no handler."""
    leader, member, calls = _group(monkeypatch)
    stranger = IPAddress("10.9.9.9")
    payloads = [
        MergeRequest(sender=stranger, epoch=1),
        MergeInfo(sender=stranger, epoch=1, members=()),
        SelfFault(reporter=member.ip, epoch=member.epoch),
    ]
    for payload in payloads:
        _deliver(member, payload, stranger)
    _deliver(leader, GroupHint(sender=stranger, leader=stranger, epoch=9, member=False),
             stranger)
    assert calls == []
    for payload in payloads:
        _deliver(leader, payload, stranger)
    _deliver(member, GroupHint(sender=leader.ip, leader=leader.ip, epoch=9, member=False),
             leader.ip)
    assert calls == [
        (AdapterState.LEADER, "_on_merge_request"),
        (AdapterState.LEADER, "_on_merge_info"),
        (AdapterState.LEADER, "_on_self_fault"),
        (AdapterState.MEMBER, "_on_group_hint"),
    ]


def test_a_timer_outside_its_states_does_nothing(monkeypatch):
    """A formation timeout that fires at a member — the commit beat it —
    is dropped by ``_guarded``, not by the callback; a live-state timer
    beside it still runs."""
    _, member, _ = _group(monkeypatch)
    pending = member.pending_prepare = object()
    member._later(0.0, member._form_timeout)
    member._later(0.0, member._clear_pending, pending)
    member.sim.run(until=member.sim.now + 0.01)
    assert member.state is AdapterState.MEMBER
    assert member.pending_prepare is None


def test_an_instance_starts_once(monkeypatch):
    """``_guarded`` checks the state alone, so a second ``start()`` — which
    would let the first run's timers reach the second — must raise. A
    daemon's boot builds new instances instead."""
    leader, member, _ = _group(monkeypatch)
    with pytest.raises(RuntimeError, match="started twice"):
        leader.start()
    member.stop()
    with pytest.raises(RuntimeError, match="started twice"):
        member.start()
    # a stopped instance's pending timers reach no callback
    pending = member.pending_prepare = object()
    member._later(0.0, member._clear_pending, pending)
    member.sim.run(until=member.sim.now + 0.01)
    assert member.pending_prepare is pending
