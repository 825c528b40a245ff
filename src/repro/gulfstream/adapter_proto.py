"""Per-adapter protocol state machine.

One :class:`AdapterProtocol` instance runs for each network adapter of each
node — the daemon "discovers and monitors all adapters on a node" and each
adapter independently joins the AMG of its broadcast segment (§2.1).

State machine::

    BEACONING --(phase end, I have highest IP)--> coordinate formation 2PC
    BEACONING --(phase end, someone else wins)--> WAIT_FORM
    WAIT_FORM --(Commit arrives)----------------> MEMBER / LEADER
    WAIT_FORM --(timeout)-----------------------> BEACONING (short re-beacon)
    MEMBER    --(commit demotes/absorbs)--------> MEMBER
    MEMBER    --(leader death, I'm successor)---> coordinate takeover 2PC
    MEMBER    --(orphaned: total silence and no
                 leader contact)-----------------> LEADER of a singleton
    LEADER    --(merge with higher leader)------> MEMBER

After formation only the leader keeps multicasting and listening for
BEACONs (§2.1); joins and merges are leader-initiated two-phase commits;
deaths are declared only after verification (§3); and every membership
change flows to GulfStream Central through the node's administrative
adapter (§2.2, Figure 3).

Which state handles what is written down once: :data:`_KINDS` names the
states each frame kind is handled in, :data:`_TIMERS` the states each
deferred callback still applies in (docs/PROTOCOL.md, "The state table").
:meth:`AdapterProtocol.on_frame` and :meth:`AdapterProtocol._guarded`
consult them, so no handler re-checks its own state.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.amg import AMGView, choose_leader
from repro.gulfstream.heartbeat import RingHeartbeat, hb_counters
from repro.gulfstream.hierarchy import AggregatedReport
from repro.gulfstream.messages import (
    SIZE_BEACON,
    SIZE_CONTROL,
    Beacon,
    Commit,
    GroupHint,
    Heartbeat,
    MemberInfo,
    MembershipReport,
    MergeInfo,
    MergeRequest,
    Prepare,
    PrepareAck,
    Probe,
    ProbeAck,
    ReportAck,
    SelfFault,
    SubgroupPoll,
    SubgroupPollAck,
    Suspect,
    SuspectAck,
    membership_msg_size,
)
from repro.gulfstream.params import (
    CONSENSUS_WINDOW, REBEACON_DURATION, REPORT_COALESCE, GSParams,
)
from repro.gulfstream.subgroups import SubgroupHeartbeat
from repro.gulfstream.two_phase import CommitCoordinator
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.daemon import GulfStreamDaemon

__all__ = ["AdapterProtocol", "AdapterState"]


class AdapterState(enum.Enum):
    BOOT = "boot"
    BEACONING = "beaconing"
    WAIT_FORM = "wait_form"
    MEMBER = "member"
    LEADER = "leader"
    STOPPED = "stopped"


@dataclass
class _Verification:
    """Leader-side in-flight verification of a suspected adapter."""

    suspect: IPAddress
    reporters: Set[IPAddress] = dc_field(default_factory=set)
    window_event: Any = None


_States = FrozenSet[AdapterState]
_Route = Tuple[str, bool, _States]

#: every state but STOPPED: what a stopped instance handles is nothing
_LIVE: _States = frozenset(AdapterState) - {AdapterState.STOPPED}
_BEACONING: _States = frozenset({AdapterState.BEACONING})
_WAIT_FORM: _States = frozenset({AdapterState.WAIT_FORM})
_MEMBER: _States = frozenset({AdapterState.MEMBER})
_LEADER: _States = frozenset({AdapterState.LEADER})
#: the states that hold a view (the ``state`` setter asserts it)
_IN_GROUP: _States = _MEMBER | _LEADER

#: The transition table. Payload type -> ``(handler, whole_frame, states)``:
#: the :class:`AdapterProtocol` method ``on_frame`` calls — with the payload
#: or, where the handler needs the sender's address, with the whole frame —
#: and the states it is called in; in any other state the frame is dropped.
#: After formation only the leader listens for BEACONs (§2.1).
_KINDS: Dict[type, _Route] = {
    Heartbeat: ("_on_heartbeat", False, _IN_GROUP),
    Beacon: ("_on_beacon", False, _BEACONING | _WAIT_FORM | _LEADER),
    Prepare: ("_on_prepare", False, _LIVE),
    PrepareAck: ("_on_prepare_ack", False, _LIVE),
    Commit: ("_on_commit", False, _LIVE),
    Suspect: ("_on_suspect_msg", False, _LIVE),
    SuspectAck: ("_on_suspect_ack", False, _IN_GROUP),
    SelfFault: ("_on_self_fault", False, _LEADER),
    Probe: ("_on_probe", False, _LIVE),
    ProbeAck: ("_on_probe_ack", False, _IN_GROUP),
    MergeRequest: ("_on_merge_request", False, _LEADER),
    MergeInfo: ("_on_merge_info", False, _LEADER),
    GroupHint: ("_on_group_hint", False, _MEMBER),
    SubgroupPoll: ("_on_subgroup_poll", False, _IN_GROUP),
    SubgroupPollAck: ("_on_subgroup_poll_ack", False, _IN_GROUP),
    MembershipReport: ("_on_report_frame", True, _LIVE),
    ReportAck: ("_on_report_ack", False, _LIVE),
    AggregatedReport: ("_on_batch", False, _LIVE),
}

#: ``_later`` callback -> the states it still applies in; fired in any other
#: state (STOPPED included), it does nothing
_TIMERS: Dict[str, _States] = {
    "_end_beacon_phase": _BEACONING,
    "_form_group": _BEACONING,
    "_form_timeout": _WAIT_FORM,
    "_clear_pending": _LIVE,
    "_declare_stable": _LEADER,
    "_send_report": _LEADER,
    "_suspect_retry": _IN_GROUP,
    "_verify_leader_death": _MEMBER,
    "_verification_expired": _LEADER,
    "_probe_timeout": _IN_GROUP,
}

#: every payload type ``on_frame`` has seen -> its route (``None``:
#: application traffic), resolved once per type by :func:`_route`
_ROUTES: Dict[type, Optional[_Route]] = dict(_KINDS)


def _route(kind: type) -> Optional[_Route]:
    """The route of the nearest protocol class in ``kind``'s MRO — a
    subclass is its base's kind — or ``None`` if it has none."""
    route = next((_KINDS[cls] for cls in kind.__mro__ if cls in _KINDS), None)
    _ROUTES[kind] = route
    return route


def _due(keys: array, seqs: array, lo: int, now: float, seq: int) -> int:
    """The end of the run of entries from ``lo`` keyed before ``(now,
    seq)`` in columns in key order: beacons whose events would have fired."""
    k = bisect_left(keys, now, lo)
    end = len(keys)
    while k < end and keys[k] == now and seqs[k] < seq:
        k += 1
    return k


class _Backlog:
    """Beacons billed to the host's OS model and not handled yet, in key
    order, as three columns live from ``head`` on: the finish time and
    reserved seq that key the event which would have handled each beacon,
    and the beacon — 24 bytes an entry (docs/PROTOCOL.md §8). The columns
    are emptied the moment the last entry goes."""

    __slots__ = ("keys", "seqs", "msgs", "head")

    def __init__(self) -> None:
        self.keys = array("d")
        self.seqs = array("q")
        self.msgs: List[Beacon] = []
        self.head = 0

    def __len__(self) -> int:
        return len(self.msgs) - self.head

    def append(self, key: float, seq: int, msg: Beacon) -> None:
        self.keys.append(key)
        self.seqs.append(seq)
        self.msgs.append(msg)

    def extend(self, keys: array, seqs: array, msgs: List[Beacon]) -> None:
        self.keys.extend(keys)
        self.seqs.extend(seqs)
        self.msgs.extend(msgs)

    def pop_due(self, now: float, seq: int) -> List[Beacon]:
        """Remove and return the beacons keyed before ``(now, seq)``, whose
        events would have fired by now: a prefix, the columns being in key
        order. The popped prefix is cut from the columns once it is half of
        them."""
        keys, seqs, msgs, head = self.keys, self.seqs, self.msgs, self.head
        k = _due(keys, seqs, head, now, seq)
        end = len(keys)
        due = msgs[head:k]
        if k == end:
            self.clear()
        elif 2 * k < end:
            self.head = k
        else:
            del keys[:k], seqs[:k], msgs[:k]
            self.head = 0
        return due

    def clear(self) -> None:
        del self.keys[:], self.seqs[:], self.msgs[:]
        self.head = 0


class AdapterProtocol:
    """The GulfStream protocol instance for one adapter."""

    def __init__(self, daemon: "GulfStreamDaemon", nic, params: GSParams) -> None:
        self.daemon = daemon
        self.nic = nic
        self.params = params
        self.sim = daemon.sim
        self.host = daemon.host
        self.os = daemon.host.os
        #: put prebuilt frames from this adapter on the wire in one call
        #: (the ring heartbeat's send path; :meth:`NIC.send_frames`)
        self.send_frames = nic.send_frames
        self._state = AdapterState.BOOT
        #: beacons received while not LEADER: charged to the OS model on
        #: arrival, folded in by :meth:`_absorb`
        self._backlog = _Backlog()
        self.epoch = 0
        self.view: Optional[AMGView] = None
        self.hb = None
        #: beacons collected in BEACONING / WAIT_FORM; emptied when a view is
        #: installed (nothing reads it until the next beacon phase)
        self.peers: Dict[IPAddress, MemberInfo] = {}
        self.coordinator: Optional[CommitCoordinator] = None
        self.pending_prepare: Optional[Prepare] = None
        self.pending_joins: Dict[IPAddress, MemberInfo] = {}
        self.pending_deaths: Set[IPAddress] = set()
        self.verifications: Dict[IPAddress, _Verification] = {}
        self._epoch_floor = 0
        self._change_dirty = False
        self._beacon_timer: Optional[Timer] = None
        self._probe_nonce = 0
        self._probe_waiters: Dict[int, tuple] = {}
        self._suspect_seq = 0
        self._outstanding_suspects: Dict[int, tuple] = {}
        self._leader_unreachable = False
        self._last_leader_contact = 0.0
        self._takeover_pending = False
        self._merge_req_sent: Dict[IPAddress, float] = {}
        self._hint_sent: Dict[IPAddress, float] = {}
        #: when each current member entered the view (:meth:`_member_since`):
        #: the first install's time, or its entry in ``_joined`` if it joined
        #: a later view
        self._installed_at = 0.0
        self._joined: Dict[IPAddress, float] = {}
        # reporting state (leader role)
        self._declared_stable = False
        self._stable_event = None
        self._report_event = None
        self._report_retry = None
        self._last_reported: Optional[FrozenSet[IPAddress]] = None
        self._removed_since_report: Set[IPAddress] = set()
        # a leader whose entire view died at once sheds the group identity
        # once the final removal report is flushed (see _install_view)
        self._dissolve_pending = False
        # metrics plane: farm-wide discovery-traffic counters (§4.1 —
        # beacon load is the other half of the Figure 5 trade-off)
        self._m_beacons = self.sim.metrics.counter("gs.beacon.sent")

    # ------------------------------------------------------------------
    # identity & plumbing
    # ------------------------------------------------------------------
    @property
    def ip(self) -> IPAddress:
        return self.nic.ip

    @property
    def is_admin_adapter(self) -> bool:
        """Adapter 0 is the administrative adapter by convention (§2.2)."""
        return self.nic.index == 0

    @cached_property
    def _hb_shared(self):
        """The ``gs.hb.*`` counters and the ``hb/<nic>`` stream, resolved when
        the first ring engine is built and shared by every engine this
        adapter builds after it."""
        return hb_counters(self.sim.metrics), self.sim.rng.stream(f"hb/{self.nic.name}")

    def my_info(self) -> MemberInfo:
        return MemberInfo(
            ip=self.ip,
            node=self.host.name,
            adapter_index=self.nic.index,
            admin_eligible=self.is_admin_adapter and self.host.admin_eligible,
        )

    @property
    def state(self) -> AdapterState:
        return self._state

    @state.setter
    def state(self, new: AdapterState) -> None:
        # whatever the finished part of the backlog would have done under the
        # old state happens before anyone can see the new one
        self._absorb()
        assert new not in _IN_GROUP or self.view is not None, new
        old, self._state = self._state, new
        if new is AdapterState.LEADER:
            # a leader acts on beacons: the unfinished rest become the events
            # they would have been, at their original keys
            backlog, h = self._backlog, self._backlog.head
            for when, seq, msg in zip(backlog.keys[h:], backlog.seqs[h:], backlog.msgs[h:]):
                self.sim.schedule_at(when, self._on_beacon, msg, seq=seq)
            backlog.clear()
        if (old is AdapterState.LEADER) is not (new is AdapterState.LEADER):
            self.nic._sync()  # a leader takes beacon multicasts eagerly

    @property
    def lazy(self) -> bool:
        """May this adapter take beacon multicasts as records (a sink's
        ``lazy``, :meth:`NIC.bind`)? Everyone but a leader."""
        return self._state is not AdapterState.LEADER

    def trace(self, category: str, **data: Any) -> None:
        self.sim.trace.emit(self.sim.now, category, self.nic.name, **data)

    def send(self, dst: IPAddress, payload: Any, size: Optional[int] = None) -> bool:
        return self.nic.send(dst, payload, size=size or SIZE_CONTROL)

    def _later(self, delay: float, fn, *args):
        """Call ``fn(*args)`` after ``delay`` if this instance is in one of
        ``fn``'s :data:`_TIMERS` states then."""
        return self.sim.schedule(delay, self._guarded, fn, args)

    def _guarded(self, fn, args) -> None:
        if self._state in _TIMERS[fn.__name__]:
            fn(*args)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the discovery protocol on this adapter. Runs once per
        instance: a daemon builds new instances on every boot, so no timer
        of an earlier run can reach this one (:meth:`_guarded` checks the
        state alone)."""
        if self._state is not AdapterState.BOOT:
            raise RuntimeError(f"{self!r} started twice: a daemon boot builds new instances")
        self.state = AdapterState.BEACONING
        self.peers.clear()
        self.epoch = 0
        self.view = None
        self.trace("gs.start")
        self._beacon_timer = Timer(
            self.sim,
            self.params.beacon_interval,
            self._beacon_tick,
            initial_delay=min(0.05, self.params.beacon_interval / 2),
        )
        # The paper measured the beaconing timer being set 1-2 s late
        # because the daemon processes other start-up events first; the
        # stagger extends the effective phase by that much.
        stagger = self.os.beacon_stagger()
        self._later(stagger + self.params.beacon_duration, self._end_beacon_phase)

    def stop(self) -> None:
        """Tear everything down (node crash or daemon shutdown)."""
        self.state = AdapterState.STOPPED
        self._stand_down()  # STOPPED is in no _TIMERS row: pending windows do nothing
        if self.hb is not None:
            self.hb.stop()
            self.hb = None
        self._probe_waiters.clear()
        self._outstanding_suspects.clear()
        self._backlog.clear()  # a stopped instance is never restarted
        self.trace("gs.stop")

    def _stand_down(self) -> None:
        """Drop what only a discovering adapter or a leader runs — the
        beacon timer, a 2PC round, verifications — on becoming a member or
        stopping."""
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None
        if self.coordinator is not None:
            self.coordinator.cancel()
            self.coordinator = None
        self.verifications.clear()

    # ------------------------------------------------------------------
    # beaconing & discovery (§2.1)
    # ------------------------------------------------------------------
    def _beacon_tick(self) -> None:
        if self.state in (AdapterState.BEACONING, AdapterState.WAIT_FORM):
            msg = Beacon(info=self.my_info(), is_leader=False, epoch=self.epoch)
        elif self.state is AdapterState.LEADER:
            msg = Beacon(
                info=self.my_info(),
                is_leader=True,
                epoch=self.epoch,
                group_size=self.view.size,
            )
        else:
            return
        self._m_beacons.inc()
        self.nic.multicast(msg, size=SIZE_BEACON)

    def _end_beacon_phase(self) -> None:
        # thread-switch lag before the collected information is examined
        self._later(self.os.phase_lag(), self._form_group)

    def _form_group(self) -> None:
        self._absorb()
        if not self.nic.loopback_test():
            # a sick adapter must not form (and report) a phantom group;
            # keep re-beaconing so a repaired adapter joins normally
            self.trace("gs.adapter.sick")
            self.peers.clear()
            self._later(self.params.orphan_timeout, self._end_beacon_phase)
            return
        candidates = dict(self.peers)
        candidates[self.ip] = self.my_info()
        winner = choose_leader(candidates.values())
        self.trace("gs.phase.end", peers=len(self.peers), winner=str(winner.ip))
        if winner.ip == self.ip:
            # I have the highest IP: undertake the two-phase commit (§2.1)
            self._coordinate(list(candidates.values()), reason="formation")
        else:
            self.state = AdapterState.WAIT_FORM
            self._later(self.params.form_timeout, self._form_timeout)

    def _form_timeout(self) -> None:
        # the expected coordinator never committed us; re-beacon briefly
        self.trace("gs.form.timeout")
        self.state = AdapterState.BEACONING
        self.peers.clear()
        self._later(REBEACON_DURATION, self._end_beacon_phase)

    def _on_beacon(self, msg: Beacon) -> None:
        if self._state is not AdapterState.LEADER:
            # collected while discovering; the state setter's events for a
            # leader's backlog may fire after a demotion, and are ignored
            self._collect([msg])
            return
        if msg.info.ip == self.nic.ip:
            return
        if msg.is_leader:
            if self.view.contains(msg.info.ip):
                if msg.epoch < self.epoch:
                    # a stale in-flight beacon from someone we absorbed
                    return
                # a *current* member claiming independent leadership: it
                # split off (orphaned, or believes it was dropped). Remove
                # it from our view and let the merge path re-absorb its
                # group — resolving the limbo deterministically.
                self.trace("gs.member.split", who=str(msg.info.ip))
                self.pending_deaths.add(msg.info.ip)
                self._kick_membership_change()
            winner = choose_leader([self.my_info(), msg.info])
            if winner.ip == self.ip:
                self._request_merge(msg)
            # else: the other leader heard our beacon and will request
        else:
            # an adapter in its discovery phase: bring it in (§2.1 "allows
            # new adapters to join an already existing group")
            if self.view.contains(msg.info.ip):
                # A member in good standing never beacons — unless this is
                # an in-flight relic from just before it was committed
                # (grace window), it restarted so quickly nobody noticed
                # the crash. Remove the stale membership; its next beacon
                # joins it afresh.
                joined = self._member_since(msg.info.ip)
                if self.sim.now - joined > 2 * self.params.beacon_interval:
                    self.trace("gs.member.restarted", who=str(msg.info.ip))
                    self.pending_deaths.add(msg.info.ip)
                    self._kick_membership_change()
            elif msg.info.ip not in self.pending_joins:
                self.trace("gs.join.seen", who=str(msg.info.ip))
                self.pending_joins[msg.info.ip] = msg.info
                if msg.epoch > self._epoch_floor:
                    self._epoch_floor = msg.epoch
                self._kick_membership_change()

    # ------------------------------------------------------------------
    # merging (§2.1)
    # ------------------------------------------------------------------
    def _request_merge(self, their_beacon: Beacon) -> None:
        now = self.sim.now
        last = self._merge_req_sent.get(their_beacon.info.ip, -1e9)
        if now - last < 2 * self.params.beacon_interval:
            return
        self._merge_req_sent[their_beacon.info.ip] = now
        self.trace("gs.merge.request", to=str(their_beacon.info.ip))
        self.send(their_beacon.info.ip, MergeRequest(sender=self.ip, epoch=self.epoch))

    def _on_merge_request(self, msg: MergeRequest) -> None:
        reply = MergeInfo(sender=self.ip, epoch=self.epoch, members=self.view.members)
        self.send(msg.sender, reply, size=membership_msg_size(self.view.size))

    def _on_merge_info(self, msg: MergeInfo) -> None:
        new = [m for m in msg.members if not self.view.contains(m.ip)]
        if not new:
            return
        self.trace("gs.merge.absorb", count=len(new), from_leader=str(msg.sender))
        for m in new:
            self.pending_joins[m.ip] = m
        if msg.epoch > self._epoch_floor:
            self._epoch_floor = msg.epoch
        self._kick_membership_change()

    # ------------------------------------------------------------------
    # two-phase commit plumbing
    # ------------------------------------------------------------------
    def _next_epoch(self) -> int:
        self._absorb()
        return max(self.epoch, self._epoch_floor) + 1

    def _coordinate(
        self, members, reason: str, epoch: Optional[int] = None, fresh_group: bool = False
    ) -> None:
        if self.coordinator is not None and not self.coordinator.finished:
            self._change_dirty = True
            return
        keep_key = "" if (fresh_group or self.view is None) else self.view.group_key
        self.coordinator = CommitCoordinator(
            self,
            members,
            epoch if epoch is not None else self._next_epoch(),
            reason,
            lambda view, r=reason: self._on_committed(view, r),
            group_key=keep_key,
        )

    def _on_committed(self, view: AMGView, reason: str) -> None:
        self.coordinator = None
        self._install_view(view, reason)

    def _kick_membership_change(self) -> None:
        """Fold queued joins/deaths into one recommit (leader only)."""
        if self.state is not AdapterState.LEADER:
            return
        if self.coordinator is not None and not self.coordinator.finished:
            self._change_dirty = True
            return
        self.pending_deaths = {ip for ip in self.pending_deaths if self.view.contains(ip)}
        self.pending_joins = {
            ip: m for ip, m in self.pending_joins.items() if not self.view.contains(ip)
        }
        if not self.pending_deaths and not self.pending_joins:
            return
        members = list(self.view.without(self.pending_deaths))
        members.extend(self.pending_joins.values())
        reason = "death" if self.pending_deaths else "join"
        self.pending_deaths = set()
        self.pending_joins = {}
        self._change_dirty = False
        self._coordinate(members, reason)

    def _on_prepare(self, msg: Prepare) -> None:
        if self.ip not in msg.member_ips:
            return
        ok = msg.epoch > self.epoch
        hint = self.epoch
        if ok and self.pending_prepare is not None:
            pk = (self.pending_prepare.epoch, int(self.pending_prepare.coordinator))
            nk = (msg.epoch, int(msg.coordinator))
            if pk > nk:
                ok = False
                hint = max(hint, self.pending_prepare.epoch)
        if ok and self.coordinator is not None and not self.coordinator.finished:
            mine = (self.coordinator.epoch, int(self.ip))
            theirs = (msg.epoch, int(msg.coordinator))
            if mine > theirs:
                ok = False
                hint = max(hint, self.coordinator.epoch)
            else:
                # a stronger coordinator supersedes my round
                self.coordinator.cancel()
                self.coordinator = None
        self.send(
            msg.coordinator,
            PrepareAck(
                sender=self.ip,
                coordinator=msg.coordinator,
                epoch=msg.epoch,
                ok=ok,
                current_epoch=hint,
            ),
        )
        if ok:
            self.pending_prepare = msg
            self._later(3 * self.params.twopc_timeout, self._clear_pending, msg)

    def _clear_pending(self, msg: Prepare) -> None:
        if self.pending_prepare is msg:
            self.pending_prepare = None

    def _on_prepare_ack(self, msg: PrepareAck) -> None:
        if self.coordinator is not None:
            self.coordinator.on_prepare_ack(msg)

    def _on_commit(self, msg: Commit) -> None:
        if not msg.view.contains(self.ip):
            return
        if self.view is not None and msg.epoch <= self.view.epoch:
            return
        self._last_leader_contact = self.sim.now
        self._install_view(msg.view, msg.reason)

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------
    def _install_view(self, view: AMGView, reason: str) -> None:
        if self.state is AdapterState.STOPPED:
            return
        if self.view is not None and view.epoch < self.view.epoch:
            return
        old = self.view
        self.view = view
        self.epoch = view.epoch
        self._track_members(old, view)
        self.pending_prepare = None
        self._leader_unreachable = False
        self._takeover_pending = False
        i_lead = view.leader_ip == self.ip
        self.trace(
            "gs.view.install",
            epoch=view.epoch,
            size=view.size,
            leader=str(view.leader_ip),
            reason=reason,
            role="leader" if i_lead else "member",
        )
        if self.hb is not None:
            self.hb.stop()
        self.hb = self._make_hb_engine(view)
        if i_lead:
            self.state = AdapterState.LEADER
            if self._beacon_timer is None or not self._beacon_timer.active:
                self._beacon_timer = Timer(
                    self.sim, self.params.beacon_interval, self._beacon_tick,
                    initial_delay=min(0.05, self.params.beacon_interval / 2),
                )
            if old is not None and reason in ("death", "takeover"):
                self._removed_since_report |= old.ip_set - view.ip_set
            if view.size > 1:
                self._dissolve_pending = False
            elif old is not None and old.size > 1 and reason == "death":
                # Every other member vanished from my vantage point at
                # once. §3.1's likelier explanation is that *this* adapter
                # was silently moved to a new broadcast domain — the old
                # VLAN's survivors take over and keep reporting under this
                # group key, so carrying it along would make two lineages
                # fight over one group at GulfStream Central. Flush the
                # final removal report (genuine deaths must still reach
                # GSC), then shed the group identity (_send_report).
                self._dissolve_pending = True
            if reason in ("formation", "self_promote", "join", "merge", "dissolved"):
                # Fresh leadership lineage, or a commit that absorbed
                # members: the reporting basis may be stale relative to what
                # other (partition-era) lineages told GSC under this group
                # key, so force the next report to be a full snapshot. GSC
                # applies fulls wholesale, which reconciles any interleaved
                # removals. Deaths stay delta-reported — the steady-state
                # failure path keeps the paper's "changes only" property.
                self._last_reported = None
                self._removed_since_report.clear()
            self._schedule_report()
            if self._change_dirty or self.pending_deaths or self.pending_joins:
                self._kick_membership_change()
        else:
            self.state = AdapterState.MEMBER
            for v in self.verifications.values():
                if v.window_event is not None:
                    v.window_event.cancel()
            self._stand_down()
            if self._stable_event is not None:
                self._stable_event.cancel()
                self._stable_event = None
            if self._report_event is not None:
                self._report_event.cancel()
                self._report_event = None
            self._last_reported = None
            self._removed_since_report.clear()
            self._dissolve_pending = False
            self.pending_joins.clear()
            self.pending_deaths.clear()
            self._last_leader_contact = self.sim.now
        # the beacon phase is over (the state change folded in what it
        # heard); start() and _form_timeout, the ways back, begin afresh
        self.peers.clear()
        self.daemon.on_view_installed(self)

    def _track_members(self, old: Optional[AMGView], view: AMGView) -> None:
        """Note when ``view``'s members entered it, survivors keeping their
        time: O(change), on the hashes the two views already store, and
        nothing per member of the first view."""
        now = self.sim.now
        if old is None:
            self._installed_at = now
            self._joined = {}
            return
        joined = self._joined
        for ip in old.ip_set - view.ip_set:
            joined.pop(ip, None)
        for ip in view.ip_set - old.ip_set:
            joined[ip] = now

    def _member_since(self, ip: IPAddress) -> float:
        """When current member ``ip`` entered the view (a leader tells a
        restarted member's beacons from in-flight relics with it)."""
        return self._joined.get(ip, self._installed_at)

    def _make_hb_engine(self, view: AMGView):
        p = self.params
        if view.size <= 1:
            return None
        if p.subgroup_size is not None and view.size > p.subgroup_size:
            return SubgroupHeartbeat(
                self, view, self._on_hb_suspect, self._on_total_silence,
                on_subgroup_dead=self._on_subgroup_dead,
            )
        return RingHeartbeat(
            self, view, self._on_hb_suspect, self._on_total_silence, *self._hb_shared
        )

    # ------------------------------------------------------------------
    # reporting to GulfStream Central (§2.2)
    # ------------------------------------------------------------------
    def _schedule_report(self) -> None:
        if not self._declared_stable:
            # initial discovery: restart the T_amg quiet window
            if self._stable_event is not None:
                self._stable_event.cancel()
            self._stable_event = self._later(
                self.os.phase_lag() + self.params.amg_stable_wait, self._declare_stable
            )
        else:
            if self._report_event is None:
                self._report_event = self._later(REPORT_COALESCE, self._send_report)

    def _declare_stable(self) -> None:
        self._declared_stable = True
        self._stable_event = None
        self.trace("gs.amg.stable", size=self.view.size, epoch=self.view.epoch)
        self._later(self.os.phase_lag(), self._send_report)

    def _send_report(self) -> None:
        self._report_event = None
        current = self.view.ip_set
        if self._last_reported is None:
            kind = "full"
            added: tuple = self.view.members
            removed = tuple(self._removed_since_report - current)
        else:
            kind = "delta"
            added = tuple(m for m in self.view.members if m.ip not in self._last_reported)
            removed = tuple(
                (self._last_reported - current) | (self._removed_since_report - current)
            )
            if not added and not removed:
                self._finish_dissolve()
                return
        report = MembershipReport(
            leader=self.ip,
            group_key=self.view.group_key,
            epoch=self.view.epoch,
            kind=kind,
            members=self.view.members if kind == "full" else (),
            added=added if kind == "delta" else (),
            removed=removed,
            node=self.host.name,
            stable=True,
        )
        sent = self.daemon.send_report(
            report, vlan=self.nic.port.vlan if self.nic.port else None
        )
        if sent:
            self.trace("gs.report.sent", kind=kind, size=self.view.size,
                       added=len(added), removed=len(removed))
            self._last_reported = current
            self._removed_since_report.clear()
            self._finish_dissolve()
        else:
            # no route to GSC yet (admin group still forming): retry
            if self._report_retry is None or not self._report_retry.pending:
                self._report_retry = self._later(
                    self.params.report_retry_interval, self._send_report
                )

    def _finish_dissolve(self) -> None:
        """Shed a dissolved group's identity after its last report.

        Deferred until the removal report is flushed so GSC still learns
        of the deaths under the old key; a merge that re-grows the view in
        the meantime clears the flag in :meth:`_install_view`.
        """
        if not self._dissolve_pending:
            return
        self._dissolve_pending = False
        if self.view.size != 1:
            return
        self.trace("gs.dissolve", old_key=self.view.group_key)
        view = AMGView.build([self.my_info()], self._next_epoch())  # fresh key
        self._install_view(view, reason="dissolved")

    def resend_full_report(self) -> None:
        """Re-sync a (possibly new) GulfStream Central with full membership."""
        if self.state is AdapterState.LEADER and self._declared_stable:
            self._last_reported = None
            self._send_report()

    # ------------------------------------------------------------------
    # failure detection: member side (§3)
    # ------------------------------------------------------------------
    def _on_hb_suspect(self, suspect: IPAddress) -> None:
        if self.state is AdapterState.LEADER:
            if not self.nic.loopback_test():
                # my own adapter is the silent one: declaring the members
                # dead and reporting it over the admin network would push a
                # phantom group to GSC while the real group takes over (§3)
                self.trace("gs.selffault")
                return
            self._begin_verification(suspect, reporter=self.ip)
            return
        if not self.nic.loopback_test():
            # my own adapter can't receive: don't blame the neighbour (§3)
            self.trace("gs.selffault")
            self.send(self.view.leader_ip, SelfFault(reporter=self.ip, epoch=self.epoch))
            return
        if suspect == self.view.leader_ip:
            self._consider_takeover()
            succ = self.view.successor
            if succ is not None and succ.ip != self.ip:
                self._send_suspect(suspect, to=succ.ip)
        else:
            self._send_suspect(suspect, to=self.view.leader_ip)

    def _send_suspect(self, suspect: IPAddress, to: IPAddress) -> None:
        self._suspect_seq += 1
        seq = self._suspect_seq
        msg = Suspect(reporter=self.ip, suspect=suspect, epoch=self.epoch, seq=seq)
        self._outstanding_suspects[seq] = (msg, to, self.params.suspect_retries)
        self.send(to, msg)
        self._later(self.params.suspect_retry_interval, self._suspect_retry, seq)

    def _suspect_retry(self, seq: int) -> None:
        entry = self._outstanding_suspects.get(seq)
        if entry is None:
            return
        msg, to, retries = entry
        if retries <= 0:
            del self._outstanding_suspects[seq]
            if to == self.view.leader_ip:
                self.trace("gs.leader.unreachable")
                self._leader_unreachable = True
            return
        self._outstanding_suspects[seq] = (msg, to, retries - 1)
        self.send(to, msg)
        self._later(self.params.suspect_retry_interval, self._suspect_retry, seq)

    def _on_suspect_ack(self, msg: SuspectAck) -> None:
        self._outstanding_suspects.pop(msg.seq, None)
        if msg.sender == self.view.leader_ip:
            self._last_leader_contact = self.sim.now
            self._leader_unreachable = False

    def _on_total_silence(self) -> None:
        """Every monitored neighbour silent for orphan_timeout (§3.1 path)."""
        if self.state is AdapterState.LEADER:
            return
        if not self.nic.loopback_test():
            # *I* am the sick one (loopback failed): claiming leadership on
            # a dead adapter would report a phantom group through the admin
            # network. Stay quiet; the engine re-raises while the silence
            # persists, and a repaired adapter rejoins then.
            return
        no_contact = (
            self._leader_unreachable
            or self.sim.now - self._last_leader_contact > self.params.orphan_timeout
        )
        if no_contact:
            self._self_promote("orphaned")
        # else: leader still reachable; its recommit should re-ring us, and
        # the engine re-raises if the silence persists anyway

    def _self_promote(self, why: str) -> None:
        """Conclude I should become a group leader and begin beaconing."""
        if not self.nic.loopback_test():
            return
        self.trace("gs.self_promote", why=why)
        view = AMGView.build([self.my_info()], self._next_epoch())  # fresh key
        self._install_view(view, reason="self_promote")

    # ------------------------------------------------------------------
    # leader death & takeover (§2.1)
    # ------------------------------------------------------------------
    def _consider_takeover(self) -> None:
        if self._takeover_pending:
            return
        self._takeover_pending = True
        rank = self.view.rank(self.ip)
        # second-ranked member (rank 1) verifies first; others stagger in
        delay = (rank - 1) * self.params.takeover_stagger
        epoch_at = self.epoch
        self._later(delay, self._verify_leader_death, epoch_at)

    def _verify_leader_death(self, epoch_at: int) -> None:
        if self.epoch != epoch_at:
            self._takeover_pending = False
            return
        leader = self.view.leader_ip
        self._probe(leader, self.params.probe_retries,
                    lambda ok: self._leader_probe_result(ok, epoch_at))

    def _leader_probe_result(self, ok: bool, epoch_at: int) -> None:
        self._takeover_pending = False
        if ok or self.epoch != epoch_at:
            if ok:
                self.trace("gs.suspect.false", target="leader")
            return
        dead_leader = self.view.leader_ip
        remaining = list(self.view.without([dead_leader]))
        if not remaining:
            return
        self.trace("gs.leader.dead", old=str(dead_leader))
        self._takeover_chain(dead_leader, remaining, epoch_at)

    def _takeover_chain(self, dead_leader: IPAddress, candidates, epoch_at: int) -> None:
        """Find the highest-ranked *reachable* survivor to lead.

        After a partition the nominal successor may sit on the other side;
        probing down the rank order finds the best candidate in *this*
        partition (unreachable candidates stay members — the recommit's 2PC
        drops whoever cannot answer).
        """
        if self.epoch != epoch_at or self.state is AdapterState.LEADER:
            return
        if not candidates:
            return
        winner = choose_leader(candidates)
        if winner.ip == self.ip:
            members = list(self.view.without([dead_leader]))
            self.trace("gs.takeover", old=str(dead_leader), survivors=len(members))
            self._coordinate(members, reason="takeover")
            return
        self._probe(
            winner.ip,
            self.params.probe_retries,
            lambda ok, w=winner, dl=dead_leader, cs=candidates, e=epoch_at: (
                self._send_suspect(dl, to=w.ip)
                if ok
                else self._takeover_chain(dl, [c for c in cs if c.ip != w.ip], e)
            ),
        )

    # ------------------------------------------------------------------
    # failure detection: leader side (§3)
    # ------------------------------------------------------------------
    def _on_suspect_msg(self, msg: Suspect) -> None:
        self.send(
            msg.reporter,
            SuspectAck(sender=self.ip, reporter=msg.reporter, seq=msg.seq),
        )
        if self.state is not AdapterState.LEADER:
            if self.view is not None and msg.suspect == self.view.leader_ip:
                # a suspicion about my leader: join the (rank-staggered)
                # takeover verification — after a partition the designated
                # successor may be unreachable, so any member may end up
                # having to act (the rank stagger keeps this orderly)
                self._consider_takeover()
            elif self.view is not None:
                # the reporter addressed me as its leader, but I am not one:
                # it holds a stale view (e.g. a repaired ex-member pinned to
                # a superseded epoch). Point it home so it re-joins instead
                # of being kept alive-but-lost by my acks.
                self.send(
                    msg.reporter,
                    GroupHint(
                        sender=self.ip,
                        leader=self.view.leader_ip,
                        epoch=self.epoch,
                        member=self.view.contains(msg.reporter),
                    ),
                )
            return
        if not self.view.contains(msg.reporter):
            # a dropped member still thinks it belongs: point it home
            self.send(
                msg.reporter,
                GroupHint(sender=self.ip, leader=self.ip, epoch=self.epoch, member=False),
            )
            return
        if msg.epoch < self.epoch:
            # reporter missed a commit; re-send the current view
            self.send(
                msg.reporter,
                Commit.of_view(self.view, self.ip, "resync"),
                size=membership_msg_size(self.view.size),
            )
        if msg.suspect == self.ip or not self.view.contains(msg.suspect):
            return
        self._begin_verification(msg.suspect, reporter=msg.reporter)

    def _on_group_hint(self, msg: GroupHint) -> None:
        if self.view.leader_ip != msg.sender:
            return
        if not msg.member or msg.epoch > self.epoch:
            # either I was dropped from what I believed was my group, or
            # the group moved on without me (I'm pinned to a superseded
            # epoch): rejoin through self-promotion + merge
            self._self_promote("dropped" if not msg.member else "stale")

    def _on_self_fault(self, msg: SelfFault) -> None:
        if self.view.contains(msg.reporter):
            self._declare_dead(msg.reporter, "selffault")

    def _begin_verification(self, suspect: IPAddress, reporter: IPAddress) -> None:
        v = self.verifications.get(suspect)
        if v is None:
            v = _Verification(suspect)
            self.verifications[suspect] = v
            if self.params.verify_probe:
                # "the AMG leader first attempts to verify the reported
                # failure" (§2.1)
                self._probe(
                    suspect,
                    self.params.probe_retries,
                    lambda ok, s=suspect: self._finish_verification(s, dead=not ok, why="probe"),
                )
            else:
                v.window_event = self._later(
                    CONSENSUS_WINDOW, self._verification_expired, suspect
                )
        v.reporters.add(reporter)
        if not self.params.verify_probe and len(v.reporters) >= self._consensus_needed():
            self._finish_verification(suspect, dead=True, why="consensus")

    def _consensus_needed(self) -> int:
        p = self.params
        if self.view.size > 2 and p.hb_mode == "bidirectional" and p.consensus:
            return 2
        return 1

    def _verification_expired(self, suspect: IPAddress) -> None:
        self._finish_verification(suspect, dead=False, why="window")

    def _finish_verification(self, suspect: IPAddress, dead: bool, why: str) -> None:
        v = self.verifications.pop(suspect, None)
        if v is None:
            return
        if v.window_event is not None:
            v.window_event.cancel()
        if dead:
            self._declare_dead(suspect, why)
        else:
            # "If the reported failure proves to be false, it is ignored."
            self.trace("gs.suspect.false", target=str(suspect), why=why)

    def _declare_dead(self, ip: IPAddress, why: str) -> None:
        if not self.view.contains(ip):
            return
        self.trace("gs.death", target=str(ip), why=why)
        self.pending_deaths.add(ip)
        self._kick_membership_change()

    def _on_subgroup_dead(self, ips) -> None:
        if self.state is not AdapterState.LEADER:
            return
        for ip in ips:
            if self.view.contains(ip) and ip != self.ip:
                self.pending_deaths.add(ip)
        self._kick_membership_change()

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def _probe(self, target: IPAddress, retries: int, cb) -> None:
        self._probe_nonce += 1
        nonce = self._probe_nonce
        self._probe_waiters[nonce] = (target, retries, cb)
        self.send(target, Probe(sender=self.ip, nonce=nonce))
        self._later(self.params.probe_timeout, self._probe_timeout, nonce)

    def _probe_timeout(self, nonce: int) -> None:
        entry = self._probe_waiters.pop(nonce, None)
        if entry is None:
            return
        target, retries, cb = entry
        if retries > 0:
            self._probe(target, retries - 1, cb)
        else:
            cb(False)

    def _on_probe(self, msg: Probe) -> None:
        self.send(msg.sender, ProbeAck(sender=self.ip, nonce=msg.nonce))

    def _on_probe_ack(self, msg: ProbeAck) -> None:
        entry = self._probe_waiters.pop(msg.nonce, None)
        if msg.sender == self.view.leader_ip:
            self._last_leader_contact = self.sim.now
            self._leader_unreachable = False
        if entry is not None:
            entry[2](True)

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: Heartbeat) -> None:
        if self._state is AdapterState.STOPPED:  # receive() posts me past on_frame
            return
        view = self.view
        sender = msg.sender
        if view is not None:
            if sender == view.leader_ip:
                self._last_leader_contact = self.sim.now
                self._leader_unreachable = False
            if sender not in view.ip_set:
                # someone heartbeats me whom I don't know: they hold a view
                # that includes me (e.g. I restarted so fast nobody noticed the
                # crash). Tell them where I actually stand; if I am the leader
                # they believe in, the hint makes them re-join my new group.
                now = self.sim.now
                last = self._hint_sent.get(sender, -1e9)
                if now - last >= 2 * self.params.hb_interval:
                    self._hint_sent[sender] = now
                    self.send(
                        sender,
                        GroupHint(sender=self.ip, leader=view.leader_ip,
                                  epoch=self.epoch, member=False),
                    )
                return
        if self.hb is not None:
            self.hb.on_heartbeat(sender, msg.epoch)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def receive(self, frame) -> None:
        """NIC handler: every received frame costs serialized daemon CPU.

        A beacon at a non-leader can only ever be collected or ignored
        (§2.1), so it is charged now and costs no engine event: it waits in
        the backlog until something could observe it (docs/PROTOCOL.md §8).
        """
        msg = frame.payload
        sim = self.sim
        kind = type(msg)
        if kind is Heartbeat:
            sim.post(self.os.charge(), self._on_heartbeat, msg)  # what on_frame would reach
            return
        if self._state is AdapterState.LEADER or not isinstance(msg, Beacon):
            route = _ROUTES[kind] if kind in _ROUTES else _route(kind)
            sim.post(self.os.charge(), self.on_frame if route else self._on_app_frame, frame)
            return
        backlog = self._backlog
        if backlog.msgs and backlog.keys[backlog.head] < sim.now:
            self._absorb()  # keeps a MEMBER's backlog at O(in flight)
        backlog.append(sim.now + self.os.charge(), sim.reserve_seq(), msg)

    def receive_at(self, frame, seq: int) -> None:
        """A beacon multicast logged as a record, at this eager (leader)
        adapter: the event :meth:`receive` schedules, at its slot's ``seq``."""
        sim = self.sim
        sim.schedule_at(sim.now + self.os.charge(seq), self.on_frame, frame, seq=seq)

    def take(self, keys: array, seqs: array, msgs: List[Beacon]) -> None:
        """Beacon records the host's OS model billed for this adapter, as
        backlog columns in key order (finish time, reserved seq, beacon):
        the ones already finished are handled here, the rest join the
        backlog (a batch that is all due never enters it)."""
        backlog = self._backlog
        if backlog.msgs:
            self._fold_due()
            if backlog.msgs:  # an older entry is unfinished: these queue behind it
                backlog.extend(keys, seqs, msgs)
                return
        due = _due(keys, seqs, 0, self.sim.now, self.sim.firing_seq)
        if due == len(msgs):
            self._collect(msgs)
            return
        if due:
            self._collect(msgs[:due])
            keys, seqs, msgs = keys[due:], seqs[due:], msgs[due:]
        backlog.extend(keys, seqs, msgs)

    def _absorb(self) -> None:
        """Handle every beacon whose event would have fired by now: the
        host bills its pending records first, then the due backlog folds."""
        self.os.catch_up()
        self._fold_due()

    def _fold_due(self) -> None:
        """Handle every backlog beacon whose event would have fired by now.

        Entries are in key order (one host's handling finishes in arrival
        order) and each postdates the last state change, so handling them
        under the current state is what their events would have done.
        """
        if self._backlog.msgs:
            self._collect(self._backlog.pop_due(self.sim.now, self.sim.firing_seq))

    def _collect(self, msgs: List[Beacon]) -> None:
        """Handle finished beacons under the current state: all
        :meth:`_on_beacon` does at a lazy adapter, without a call per beacon."""
        state = self._state
        if state is not AdapterState.BEACONING and state is not AdapterState.WAIT_FORM:
            # a lazy adapter is never a LEADER (the state setter bills first),
            # and every other state ignores a beacon (§2.1)
            return
        me, peers, floor = self.nic.ip, self.peers, self._epoch_floor
        for msg in msgs:
            info = msg.info
            if info.ip != me:  # a record is never its own, a received frame may be
                peers[info.ip] = info
                if msg.epoch > floor:
                    floor = msg.epoch
        self._epoch_floor = floor

    def on_frame(self, frame) -> None:
        """Entry point for a frame whose OS handling delay has elapsed: its
        kind's :data:`_KINDS` handler, if the row names the current state."""
        kind = type(frame.payload)
        try:
            route = _ROUTES[kind]
        except KeyError:
            route = _route(kind)
        if route is None:
            self._on_app_frame(frame)
            return
        name, whole_frame, states = route
        if self._state in states:
            getattr(self, name)(frame if whole_frame else frame.payload)

    def _on_app_frame(self, frame) -> None:
        """:meth:`on_frame` for a payload type without a route: not protocol
        traffic, so the adapter's application handler takes it (§1: the
        farm hosts real request traffic on the same adapters). :meth:`receive`
        posts application frames here directly."""
        if self._state is AdapterState.STOPPED:
            return
        handler = self.nic.app_handler
        if handler is not None:
            handler(frame)
        else:
            sim = self.sim
            sim.trace.emit(sim.now, "gs.unknown_message", self.daemon.host.name,
                           kind=type(frame.payload).__name__)

    # -- kinds handled by the subgroup engine or the daemon ----------------
    def _on_subgroup_poll(self, msg: SubgroupPoll) -> None:
        if isinstance(self.hb, SubgroupHeartbeat):
            self.hb.on_poll(msg)

    def _on_subgroup_poll_ack(self, msg: SubgroupPollAck) -> None:
        if isinstance(self.hb, SubgroupHeartbeat):
            self.hb.on_poll_ack(msg)

    def _on_report_frame(self, frame) -> None:
        self.daemon.on_report_frame(self, frame.payload, src=frame.src)

    def _on_report_ack(self, ack: ReportAck) -> None:
        self.daemon.on_report_ack(ack)

    def _on_batch(self, batch: AggregatedReport) -> None:
        self.daemon.on_batch_frame(self, batch)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        v = f", view={self.view}" if self.view else ""
        return f"AdapterProtocol({self.nic.name}, {self.state.value}{v})"
