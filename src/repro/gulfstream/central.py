"""GulfStream Central.

"The node that is currently acting as the AMG leader of the administrative
adapters is known as GulfStream Central" (§2.2). GSC is instantiated by the
daemon whose administrative adapter leads the admin AMG, and deactivated if
that leadership is lost; a GSC crash therefore results in a new admin-AMG
leader election and a new GSC instance, exactly as the paper describes.

Roles (§2.2, §3, §3.1):

1. consume delta-based membership reports from every AMG leader and
   maintain the authoritative adapter-status table;
2. correlate adapter events into node / switch / router status
   (:mod:`repro.gulfstream.correlation`);
3. verify the discovered topology against the configuration database,
   flagging and optionally disabling conflicting adapters;
4. infer domain moves from a removal in one AMG followed by an addition in
   another, suppressing failure notifications for *expected* moves;
5. declare the initial discovery stable after ``gsc_stable_wait`` seconds
   of report silence — the quantity plotted in Figure 5;
6. publish everything on the notification bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.configdb import ConfigDatabase, Inconsistency
from repro.gulfstream.correlation import CorrelationEngine
from repro.gulfstream.messages import MemberInfo, MembershipReport, membership_msg_size
from repro.gulfstream.notify import NotificationBus
from repro.gulfstream.params import GSParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.daemon import GulfStreamDaemon

__all__ = ["GulfStreamCentral"]


@dataclass
class _AdapterRecord:
    ip: IPAddress
    node: str
    group_key: str
    up: bool
    since: float


@dataclass
class _GroupRecord:
    key: str
    leader: IPAddress
    epoch: int
    members: Set[IPAddress] = field(default_factory=set)
    last_report: float = 0.0


@dataclass
class _ExpectedMove:
    ip: IPAddress
    target_vlan: int
    registered_at: float
    deadline_event: object = None
    removal_seen: bool = False


class GulfStreamCentral:
    """The central authority on the status of all network components."""

    def __init__(
        self,
        daemon: "GulfStreamDaemon",
        params: GSParams,
        bus: NotificationBus,
        configdb: Optional[ConfigDatabase] = None,
        console=None,
    ) -> None:
        self.daemon = daemon
        self.sim = daemon.sim
        self.params = params
        self.bus = bus
        self.configdb = configdb
        self.console = console
        self.active = False
        self.adapters: Dict[IPAddress, _AdapterRecord] = {}
        self.groups: Dict[str, _GroupRecord] = {}
        self.correlation = CorrelationEngine(self._publish)
        if configdb is not None:
            self.correlation.load_wiring_from_db(configdb)
        elif console is not None and console.authorized:
            # future-work path: learn the wiring from the switches directly
            self.correlation.load_wiring_from_snmp(console)
        # move inference state (§3.1)
        self.recent_removals: Dict[IPAddress, tuple] = {}
        self.expected_moves: Dict[IPAddress, _ExpectedMove] = {}
        self._recent_move_done: Dict[IPAddress, float] = {}
        # stability (Figure 5 measurement)
        self.stable_time: Optional[float] = None
        self._quiet_event = None
        # accounting for the SCALE-GSC bench
        self.reports_received = 0
        self.reports_bytes = 0
        # metrics plane: counters are farm-wide cumulative (shared across
        # GSC failovers — a new leader's instance resolves the same
        # instruments); the gauges describe the authoritative table and
        # are collected only from the *active* instance
        reg = self.sim.metrics
        self._m_reports = reg.counter("gsc.reports")
        self._m_report_bytes = reg.counter("gsc.report_bytes")
        self._m_member_adds = reg.counter("gsc.member_adds")
        self._m_member_removes = reg.counter("gsc.member_removes")
        self._m_moves = reg.counter("gsc.moves_detected")
        self._m_adapters_up = reg.gauge("gsc.adapters_up")
        self._m_groups = reg.gauge("gsc.groups")
        self._m_stable_time = reg.gauge("gsc.stable_time_s")
        reg.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        if not self.active:
            return
        self._m_adapters_up.set(sum(1 for rec in self.adapters.values() if rec.up))
        self._m_groups.set(len(self.groups))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Called when this node's admin adapter becomes the admin-AMG leader."""
        if self.active:
            return
        self.active = True
        self.sim.trace.emit(self.sim.now, "gsc.activate", self.daemon.host.name)
        self._publish("gsc_activated", self.daemon.host.name)
        if self.stable_time is None:
            self._restart_quiet_timer()

    def deactivate(self) -> None:
        """Leadership lost (or daemon stopping)."""
        if not self.active:
            return
        self.active = False
        if self._quiet_event is not None:
            self._quiet_event.cancel()
            self._quiet_event = None
        self.sim.trace.emit(self.sim.now, "gsc.deactivate", self.daemon.host.name)

    def _publish(self, kind: str, subject: str, **detail) -> None:
        self.bus.publish(self.sim.now, kind, subject, **detail)

    # ------------------------------------------------------------------
    # stability declaration (§4.1)
    # ------------------------------------------------------------------
    def _restart_quiet_timer(self) -> None:
        if self._quiet_event is not None:
            self._quiet_event.cancel()
        self._quiet_event = self.sim.schedule(self.params.gsc_stable_wait, self._declare_stable)

    def _declare_stable(self) -> None:
        self._quiet_event = None
        if not self.active or self.stable_time is not None:
            return
        if not self.adapters:
            # no report has arrived yet — a view of nothing is not a stable
            # view of the topology; keep waiting
            self._restart_quiet_timer()
            return
        self.stable_time = self.sim.now
        self._m_stable_time.set(self.stable_time)
        self.sim.trace.emit(
            self.sim.now, "gsc.stable", self.daemon.host.name,
            adapters=len(self.adapters), groups=len(self.groups),
        )
        self._publish(
            "discovery_stable",
            self.daemon.host.name,
            adapters=len(self.adapters),
            groups=len(self.groups),
        )

    # ------------------------------------------------------------------
    # report intake (§2.2, Figure 3)
    # ------------------------------------------------------------------
    def handle_report(self, report: MembershipReport) -> None:
        """Apply one membership report from an AMG leader."""
        if not self.active:
            return
        self.reports_received += 1
        report_bytes = membership_msg_size(
            len(report.members) + len(report.added) + len(report.removed)
        )
        self.reports_bytes += report_bytes
        self._m_reports.inc()
        self._m_report_bytes.inc(report_bytes)
        now = self.sim.now
        self.sim.trace.emit(
            now, "gsc.report", self.daemon.host.name,
            group=report.group_key, kind=report.kind, leader=str(report.leader),
        )
        group = self.groups.get(report.group_key)
        if group is None:
            group = _GroupRecord(key=report.group_key, leader=report.leader, epoch=report.epoch)
            self.groups[report.group_key] = group
        group.leader = report.leader
        group.epoch = max(group.epoch, report.epoch)
        group.last_report = now

        if report.kind == "full":
            new_members = {m.ip for m in report.members}
            infos = {m.ip: m for m in report.members}
            implicit_removed = group.members - new_members
            added = [infos[ip] for ip in new_members]  # idempotent adds
            removed = set(report.removed) | implicit_removed
        else:
            added = list(report.added)
            removed = set(report.removed)

        # membership delta size, as seen by GSC (the paper's "only changes
        # are reported" claim is the flatness of this counter at steady state)
        self._m_member_adds.inc(len(added))
        self._m_member_removes.inc(len(removed))
        for ip in removed:
            self._adapter_removed(ip, report.group_key)
        for info in added:
            self._adapter_added(info, report.group_key)

        # a leader sending a report is alive, whatever stale removals say —
        # reconcile its own record if a previous lineage reported it dead
        leader_rec = self.adapters.get(report.leader)
        if leader_rec is not None and not leader_rec.up:
            self._adapter_added(
                MemberInfo(ip=report.leader, node=report.node or leader_rec.node,
                           adapter_index=0),
                report.group_key,
            )

        if self.stable_time is None:
            self._restart_quiet_timer()

    # ------------------------------------------------------------------
    # adapter transitions
    # ------------------------------------------------------------------
    def _adapter_added(self, info: MemberInfo, group_key: str) -> None:
        now = self.sim.now
        ip = info.ip
        group = self.groups[group_key]
        # reassign from any previous group (merges, moves)
        rec = self.adapters.get(ip)
        if rec is not None and rec.group_key != group_key:
            old = self.groups.get(rec.group_key)
            if old is not None:
                old.members.discard(ip)
                if not old.members:
                    del self.groups[rec.group_key]
        group.members.add(ip)
        was_up = rec.up if rec is not None else None
        self.adapters[ip] = _AdapterRecord(
            ip=ip, node=info.node, group_key=group_key, up=True, since=now
        )
        self.correlation.adapter_event(ip, info.node, up=True)
        # move inference (§3.1): either ordering can reach us first — the
        # old AMG's removal report (heartbeats time out, leader recommits)
        # or the new AMG's addition report (merge after self-promotion)
        removal = self.recent_removals.pop(ip, None)
        expected = self.expected_moves.get(ip)
        old_group = rec.group_key if (rec is not None and rec.group_key != group_key) else None
        if removal is not None and removal[1] != group_key:
            rem_time, removal_group = removal
            if now - rem_time <= self.params.move_window:
                if expected is not None:
                    self._complete_move(ip, removal_group, group_key)
                else:
                    self._report_unexpected_move(ip, removal_group, group_key)
                return
        if expected is not None and old_group is not None:
            # the adapter surfaced in a different group while a move was
            # pending: the move has landed, whatever report order we saw
            self._complete_move(ip, old_group, group_key)
            return
        if was_up is False:
            self._publish("adapter_recovered", str(ip), node=info.node, group=group_key)

    def _adapter_removed(self, ip: IPAddress, group_key: str) -> None:
        now = self.sim.now
        group = self.groups.get(group_key)
        if group is not None:
            group.members.discard(ip)
        rec = self.adapters.get(ip)
        if rec is None:
            return
        if rec.group_key != group_key:
            # The adapter already reappeared in another group; the old
            # group declaring it dead is the §3.1 move signature ("the old
            # one sees the failure of a member, the new one sees a new
            # member") — unless we already accounted for it.
            done_at = self._recent_move_done.get(ip)
            if rec.up and (done_at is None or now - done_at > self.params.move_window):
                if ip in self.expected_moves:
                    self._complete_move(ip, group_key, rec.group_key)
                else:
                    self._report_unexpected_move(ip, group_key, rec.group_key)
            return
        if not rec.up:
            return
        rec.up = False
        rec.since = now
        self.recent_removals[ip] = (now, group_key)
        node = rec.node
        self.correlation.adapter_event(ip, node, up=False)
        expected = self.expected_moves.get(ip)
        if expected is not None:
            # suppress the failure notification: this is (probably) the move
            expected.removal_seen = True
            self.sim.trace.emit(now, "gsc.move.suppressed", str(ip))
            return
        self._publish("adapter_failed", str(ip), node=node, group=group_key)

    # ------------------------------------------------------------------
    # dynamic reconfiguration support (§3.1)
    # ------------------------------------------------------------------
    def register_expected_move(self, ip: IPAddress, target_vlan: int) -> None:
        """Called by the reconfiguration manager *before* the switch change,
        so the resulting failure reports can be suppressed."""
        move = _ExpectedMove(ip=ip, target_vlan=target_vlan, registered_at=self.sim.now)
        move.deadline_event = self.sim.schedule(
            self.params.move_deadline, self._move_deadline, ip
        )
        self.expected_moves[ip] = move

    def _report_unexpected_move(self, ip: IPAddress, old_group: str, new_group: str) -> None:
        done_at = self._recent_move_done.get(ip)
        if done_at is not None and self.sim.now - done_at <= self.params.move_window:
            return
        self._recent_move_done[ip] = self.sim.now
        self._publish(
            "move_detected", str(ip),
            old_group=old_group, new_group=new_group, expected=False,
        )
        # "If the move is not expected, it is treated as when mismatches are
        # found between the discovered configuration and the contents of a
        # configuration database." (§3.1)
        self._publish(
            "inconsistency", str(ip),
            issue="unexpected_move", old_group=old_group, new_group=new_group,
        )

    def _complete_move(self, ip: IPAddress, old_group: str, new_group: str) -> None:
        self._m_moves.inc()
        self._recent_move_done[ip] = self.sim.now
        move = self.expected_moves.pop(ip, None)
        if move is not None and move.deadline_event is not None:
            move.deadline_event.cancel()
        self._publish(
            "move_detected", str(ip), old_group=old_group, new_group=new_group, expected=True
        )
        self._publish(
            "move_completed", str(ip), old_group=old_group, new_group=new_group,
            elapsed=round(self.sim.now - (move.registered_at if move else self.sim.now), 3),
        )

    def _move_deadline(self, ip: IPAddress) -> None:
        move = self.expected_moves.pop(ip, None)
        if move is None:
            return
        rec = self.adapters.get(ip)
        if rec is not None and rec.up:
            # it settled somewhere and we simply never saw a clean add/remove
            # pair; call it completed
            self._publish("move_completed", str(ip), old_group="?", new_group=rec.group_key,
                          elapsed=round(self.sim.now - move.registered_at, 3))
            return
        # the move never finished: release the suppressed failure
        self._publish("move_failed", str(ip), target_vlan=move.target_vlan)
        if rec is not None:
            self._publish("adapter_failed", str(ip), node=rec.node, group=rec.group_key)

    # ------------------------------------------------------------------
    # configuration verification (§2.2)
    # ------------------------------------------------------------------
    def discovered_groups(self) -> List[Set[IPAddress]]:
        """The current partition of adapters into AMGs, as reported."""
        return [set(g.members) for g in self.groups.values() if g.members]

    def verify_topology(self, disable_conflicts: bool = False) -> List[Inconsistency]:
        """Compare the discovered topology against the configuration DB.

        With ``disable_conflicts``, unknown/misplaced adapters are
        administratively disabled through the switch console.
        """
        if self.configdb is None:
            raise RuntimeError("no configuration database available")
        issues = self.configdb.verify(self.discovered_groups())
        for issue in issues:
            self._publish(
                "inconsistency", str(issue.ip), issue=issue.kind, detail=issue.detail
            )
            if (
                disable_conflicts
                and issue.kind in ("unknown", "misplaced")
                and self.console is not None
                and self.console.authorized
            ):
                try:
                    self.console.disable_adapter(issue.ip)
                except Exception:  # adapter may be gone entirely
                    pass
        return issues

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def adapter_status(self, ip: IPAddress) -> Optional[bool]:
        rec = self.adapters.get(IPAddress(ip))
        return rec.up if rec is not None else None

    def node_status(self, node: str) -> Optional[bool]:
        """Inferred node status — only GSC can make this inference (§2.2)."""
        return self.correlation.node_status(node)

    def switch_status(self, switch: str) -> Optional[bool]:
        return self.correlation.switch_status(switch)

    def router_status(self, router: str) -> Optional[bool]:
        """§3: inferred trunk-router status (needs DB router wiring)."""
        return self.correlation.router_status(router)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GulfStreamCentral({self.daemon.host.name}, active={self.active}, "
            f"adapters={len(self.adapters)}, groups={len(self.groups)})"
        )
