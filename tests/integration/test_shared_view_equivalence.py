"""One shared committed view ≡ one rebuilt per member: byte-identical runs.

A membership change builds its :class:`AMGView` once, at the coordinator;
the ``Commit`` carries that object (``Commit.view``), every member installs
it by reference, and what stays per member is O(1) or O(change)
(docs/PROTOCOL.md §3, "What a commit costs"). The per-member derivation it
replaced survives only here, as the oracle: each receiver scans
``msg.members`` for itself, builds a fresh view, rebuilds every member's
join time with the old comprehension, re-derives ``ips``/``ip_set`` on every access,
and the coordinator recounts its members on every ack. Every scenario below
runs under both and must produce the same trace records, notification
history, segment statistics, metrics snapshot *and engine event count* — the
change removes work inside events, not events.

Below the differential runs: a property test of the delta-maintained
join times (``_member_since``), and the counts that pin the complexity class (they fail
on the per-member code, by a factor that grows with the group).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.farm.builder import build_farm
from repro.gulfstream import amg as amg_module, two_phase as two_phase_module
from repro.gulfstream.adapter_proto import AdapterProtocol, AdapterState
from repro.gulfstream.amg import AMGView
from repro.gulfstream.messages import MemberInfo
from repro.gulfstream.two_phase import CommitCoordinator
from repro.net.addressing import IPAddress

from tests.conftest import make_flat_farm, run_stable
from tests.integration.test_golden_trace import PARAMS as GOLDEN_PARAMS, SPEC as GOLDEN_SPEC
from tests.integration.test_lazy_beacon_equivalence import (
    LINKS,
    OS,
    _action,
    _chaos_print,
    _compile,
    _farm_print,
    _zoned_run,
)


# ----------------------------------------------------------------------
# the oracle: what every member did for itself before views were shared
# ----------------------------------------------------------------------
_shipped_on_prepare = AdapterProtocol._on_prepare
_shipped_build = AMGView.build
_private_builds = [0]


def _per_member_on_prepare(self, msg):
    if not any(m.ip == self.ip for m in msg.members):
        return
    _shipped_on_prepare(self, msg)


def _per_member_on_commit(self, msg):
    if not any(m.ip == self.ip for m in msg.members):
        return
    if self.view is not None and msg.epoch <= self.view.epoch:
        return
    self._last_leader_contact = self.sim.now
    _private_builds[0] += 1
    self._install_view(_shipped_build(msg.members, msg.epoch, msg.group_key), msg.reason)


def _rebuilt_member_since(member_since, old, view, now):
    previous_ips = set(old.ips) if old is not None else set()
    return {
        ip: member_since.get(ip, now) if ip in previous_ips else now
        for ip in view.ips
    }


def _per_member_track_members(self, old, view):
    rebuilt = _rebuilt_member_since(self.__dict__.get("_rebuilt", {}), old, view, self.sim.now)
    self._rebuilt = rebuilt


def _per_member_member_since(self, ip):
    return self._rebuilt.get(ip, 0.0)


def _per_ack_recount(self, ack):
    if self.finished or ack.epoch != self.epoch:
        return
    self.acks[ack.sender] = ack.ok
    if not ack.ok:
        self.nack_epochs.append(ack.current_epoch)
    expected = sum(1 for m in self.members if m.ip != self.proto.ip)
    if len(self.acks) >= expected:
        self._resolve()


def _patch_in_per_member_derivation(patch):
    patch.setattr(AdapterProtocol, "_on_prepare", _per_member_on_prepare)
    patch.setattr(AdapterProtocol, "_on_commit", _per_member_on_commit)
    patch.setattr(AdapterProtocol, "_track_members", _per_member_track_members)
    patch.setattr(AdapterProtocol, "_member_since", _per_member_member_since)
    patch.setattr(CommitCoordinator, "on_prepare_ack", _per_ack_recount)
    # nothing cached on the view either: every access re-derives, as before
    ips = property(lambda self: tuple(m.ip for m in self.members))
    patch.setattr(AMGView, "ips", ips)
    patch.setattr(AMGView, "ip_set", property(lambda self: frozenset(ips.fget(self))))


def _assert_shared_equals_per_member(monkeypatch, run):
    shared = run()
    _private_builds[0] = 0
    with monkeypatch.context() as patch:
        _patch_in_per_member_derivation(patch)
        per_member = run()
    # guards the guard: the oracle really did build a view per receiver
    assert _private_builds[0] > 0
    for key in per_member:
        assert shared[key] == per_member[key], f"{key} diverged between shared and per-member views"


def _full_print(farm, **extra):
    """``_farm_print`` without its allowance for engine-event instruments."""
    return {**_farm_print(farm, **extra), "metrics": farm.sim.metrics.snapshot()}


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
        return _full_print(farm)

    _assert_shared_equals_per_member(monkeypatch, run)


@pytest.mark.slow
@pytest.mark.parametrize(
    "mix,seed",
    [("mixed", 7105910197032038905), ("leader", 1), ("partition", 2)],
)
def test_chaos_corpus(monkeypatch, mix, seed):
    """The committed corpus replays (oceano55, 40 s), monitor on: takeovers,
    partitions, rekeys, resyncs and dissolves all install views."""
    _assert_shared_equals_per_member(
        monkeypatch,
        lambda: _chaos_print(mix, seed, OS["fast"], None, nodes=55, duration=40.0),
    )


def _zoned_print(plan, duration=21.0):
    farm, stable = _zoned_run(plan, duration)
    return _full_print(farm, stable=stable)


@pytest.mark.slow
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(_action, min_size=1, max_size=4))
def test_differential_random_fault_programs(program):
    """Whole fault programs on the ZONED farm: every commit arrives as the
    coordinator's own object, so members across both zones install the
    one view it built."""
    plan = _compile(program)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_shared_equals_per_member(monkeypatch, lambda: _zoned_print(plan))


# ----------------------------------------------------------------------
# property: the delta-maintained join times are the rebuilt ones
# ----------------------------------------------------------------------
_UNIVERSE = [IPAddress(f"10.0.0.{i + 1}") for i in range(12)]
_low, _high = frozenset(_UNIVERSE[:6]), frozenset(_UNIVERSE[6:])
_step = st.one_of(
    st.frozensets(st.sampled_from(_UNIVERSE), min_size=1),  # joins and deaths
    st.just("same"),  # the installed view, installed again
    st.just("restart"),  # start() forgets the view: the next install has old=None
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_step, min_size=1, max_size=12))
@example([_low, _high])  # total replacement
@example([_low, "same", "restart", _low])
@example(["restart", "same", _high])
def test_delta_member_since_equals_rebuilt(steps):
    tracker = SimpleNamespace(sim=SimpleNamespace(now=0.0), _installed_at=0.0, _joined={})
    reference = {}
    installed = None  # what proto.view would be
    for epoch, step in enumerate(steps, start=1):
        tracker.sim.now = float(epoch)
        if step == "restart":
            installed = None
            continue
        if step == "same":
            if installed is None:
                continue
            view = installed
        else:
            infos = [MemberInfo(ip=ip, node="n", adapter_index=0) for ip in step]
            view = AMGView.build(infos, epoch)
        reference = _rebuilt_member_since(reference, installed, view, tracker.sim.now)
        AdapterProtocol._track_members(tracker, installed, view)
        installed = view
        assert len(reference) == view.size
        for ip in view.ips:
            assert AdapterProtocol._member_since(tracker, ip) == reference[ip]
        # a time is stored only for a member that joined after the first view
        assert set(tracker._joined) <= set(view.ips)
        assert all(t > tracker._installed_at for t in tracker._joined.values())


# ----------------------------------------------------------------------
# the complexity class, pinned with counts: a membership change in a group
# of N costs the group O(N) Python-level work, not O(N²)
# ----------------------------------------------------------------------
N = 64


def _counted(counts, name, fn):
    def counting(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counting


def test_one_death_recommit_costs_the_group_order_n(monkeypatch):
    """One death recommit in a 64-member AMG: the view is ranked and built
    at the coordinator and nowhere else, every survivor ends up holding the
    leader's own view object, and the whole group spends a few dozen
    ``IPAddress.__hash__`` calls per member (it was ≈ 4·N per member)."""
    farm = make_flat_farm(N, seed=3, vlans=(1,))
    run_stable(farm, timeout=120.0)
    protos = [p for d in farm.daemons.values() for p in d.protocols.values()]
    leader = next(p for p in protos if p.state is AdapterState.LEADER)
    assert leader.view.size == N
    victim = next(p for p in protos if p.ip == leader.view.members[N // 2].ip)
    survivors = [p for p in protos if p is not victim]
    epoch = leader.epoch

    counts = {"build": 0, "rank": 0, "hash": 0}
    monkeypatch.setattr(AMGView, "build", staticmethod(_counted(counts, "build", AMGView.build)))
    ranked = _counted(counts, "rank", amg_module.rank_members)
    monkeypatch.setattr(amg_module, "rank_members", ranked)
    monkeypatch.setattr(two_phase_module, "rank_members", ranked)
    monkeypatch.setattr(IPAddress, "__hash__", _counted(counts, "hash", IPAddress.__hash__))
    coordinate = leader._coordinate

    def recommit(members, reason, **kwargs):
        # the count starts here: suspicion and verification are behind us
        assert reason == "death"
        counts.update(build=0, rank=0, hash=0)
        coordinate(members, reason, **kwargs)

    leader._coordinate = recommit
    victim.host.crash()
    while any(p.epoch == epoch for p in survivors):  # ... and ends at the last install
        farm.sim.run(until=farm.sim.now + 0.01)
        assert farm.sim.now < 200.0
    monkeypatch.undo()

    assert leader.view.size == N - 1 and not leader.view.contains(victim.ip)
    assert all(p.view is leader.view for p in survivors)
    # constants, whatever N is: the coordinator ranked its proposal and the
    # committed view, and nobody else ranked or built anything
    assert (counts["build"], counts["rank"]) == (1, 2)
    # measured: 1 295 (≈ 20·N) shared, 20 954 (≈ 5·N²) with a view per member
    assert counts["hash"] <= 40 * N, counts
