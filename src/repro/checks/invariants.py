"""Online protocol-invariant checking against fabric ground truth.

The monitor watches a running :class:`~repro.farm.builder.Farm` from both
sides at once: the *protocol* side through the notification bus and the
daemons' own state machines, and the *ground truth* side through the
fabric (NIC states, segment islands, link quality) and the simulator
trace. Each invariant is checked either on a periodic sweep or at an
event, and every failed check becomes a :class:`Violation`.

Invariants (the catalogue is documented in docs/CHAOS.md):

``single_leader``
    At most one healthy LEADER-state adapter per (VLAN, partition island),
    allowing a convergence window after merges become possible.
``membership_agreement``
    No healthy MEMBER keeps a view whose leader has been ground-truth dead
    longer than the agreement bound (takeover or self-promotion must have
    happened by then).
``detection_latency``
    Every ground-truth silent failure (FAIL_FULL / FAIL_SEND / node crash)
    of a GSC-tracked adapter is reported within the bound implied by
    :class:`~repro.gulfstream.params.GSParams` — the paper's §4 detection
    formula plus the δ scheduling term from the OS model.
``no_lost_adapter``
    At quiescence GSC's correlated adapter table matches ground truth:
    healthy adapters up, dead adapters not up.
``verify_topology``
    At quiescence (and a settle time after every completed move) the
    discovered topology agrees with the configuration database.

The bounds are deliberately *upper* bounds with a safety factor: the
monitor must never cry wolf on a correct protocol, because the chaos
campaign treats any violation as a regression. When the network is
disturbed (partitioned or lossy segments) deadlines are re-armed rather
than enforced — the paper's bound assumes reliable delivery, and under
loss it only holds probabilistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.farm.builder import Farm
from repro.gulfstream.adapter_proto import AdapterState
from repro.gulfstream.notify import Notification
from repro.gulfstream.params import CONSENSUS_WINDOW, REPORT_COALESCE, GSParams
from repro.net.addressing import IPAddress
from repro.net.nic import NicState
from repro.node.osmodel import OSParams
from repro.sim.process import Timer
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "CheckWindows",
    "InvariantMonitor",
    "MONITOR_TRACE_CATEGORIES",
    "Violation",
    "monitor_trace",
]

#: the only trace categories the monitor consumes; a farm built with a
#: category-filtered trace (see :func:`monitor_trace`) keeps the emit hot
#: path on its counter-only fast path for everything else
MONITOR_TRACE_CATEGORIES = frozenset(
    {"net.nic.fail", "net.nic.repair", "gsc.activate"}
)

#: the factor every :class:`CheckWindows` term is scaled by
SAFETY = 2.0


def monitor_trace(store: bool = False) -> Trace:
    """A trace prefiltered to exactly what the monitor subscribes to."""
    return Trace(store=store, categories=MONITOR_TRACE_CATEGORIES)


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    time: float
    invariant: str
    subject: str
    detail: str

    def as_dict(self) -> dict:
        return {
            "time": round(self.time, 6),
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckWindows:
    """Invariant deadlines derived from the protocol parameters.

    ``detection_bound`` follows the paper's §4 decomposition of worst-case
    detection latency — heartbeat-miss window, checker cadence, suspect
    delivery with retries, leader probe verification, the membership
    recommit, and report delivery — plus ``delta``, the scheduling-delay
    term the paper measures as the gap between configured and observed
    times (§4.1). ``obligation_bound`` additionally allows for a leader
    takeover chain (the dead adapter may *be* a leader) and the orphan
    self-promotion fallback. Everything is scaled by :data:`SAFETY`.

    A commit's term is ``twopc_timeout``, although a commit may end later:
    a deadline that finds acks still queued at the coordinator resolves
    when its daemon drains that queue (``CommitCoordinator._on_timeout``).
    That wait is the coordinator's backlog, which ``delta``'s allowance for
    serialized handling, ``100 × proc_delay[1]`` (0.4 s under
    ``OSParams()``), already bounds on the monitor's farms: the largest
    measured over the chaos corpus, ``tests/checks`` and the e2e ``faults``
    and ``traffic`` workloads is 1.7 ms. A scheduling spike
    (``OSModel.stall``) at the coordinator lengthens it by what is left of
    the spike, as it delays every other handled step on the path.
    """

    detection_bound: float
    obligation_bound: float
    agreement_bound: float
    merge_bound: float
    gsc_failover_allowance: float
    sweep_interval: float

    @staticmethod
    def from_params(params: GSParams, os_params: Optional[OSParams] = None) -> "CheckWindows":
        osp = os_params if os_params is not None else OSParams()
        # δ: phase lags at the transitions on the detection path plus a
        # generous allowance for serialized per-event handling (§4.1)
        delta = 4.0 * osp.phase_lag[1] + 100.0 * osp.proc_delay[1] + 0.25
        hb_window = (
            (params.hb_miss_threshold + 1.0)
            * params.hb_interval
            * (1.0 + params.hb_jitter_frac)
        )
        checker = params.hb_interval  # suspicion checker cadence
        suspect = (params.suspect_retries + 1) * params.suspect_retry_interval
        if params.verify_probe:
            probing = (params.probe_retries + 1) * params.probe_timeout
        else:
            probing = CONSENSUS_WINDOW
        commit = params.twopc_timeout
        report = REPORT_COALESCE + params.report_retry_interval
        detection = SAFETY * (
            hb_window + checker + suspect + probing + commit + report + delta
        )
        # the dead adapter may lead its AMG: the successor must detect the
        # silence, win a staggered takeover 2PC (possibly after several
        # dead ranks), or the members fall back to orphan self-promotion
        takeover = (
            4.0 * params.takeover_stagger
            + params.twopc_timeout
            + params.orphan_timeout
        )
        obligation = detection + SAFETY * takeover
        # two live leaders merge through beaconing: a beacon must cross,
        # then MergeRequest/MergeInfo and an absorbing recommit; several
        # groups absorb one beacon round at a time
        merge = SAFETY * (
            6.0 * params.beacon_interval
            + 4.0 * params.twopc_timeout
            + params.form_timeout
            + delta
        )
        # a GSC crash adds an admin-AMG takeover plus the resync round
        failover = SAFETY * (takeover + hb_window + report + delta)
        sweep = max(0.25, min(params.hb_interval, 1.0))
        return CheckWindows(
            detection_bound=detection,
            obligation_bound=obligation,
            agreement_bound=obligation,
            merge_bound=merge,
            gsc_failover_allowance=failover,
            sweep_interval=sweep,
        )

    @property
    def settle_time(self) -> float:
        """Simulated seconds of calm needed before quiescence checks."""
        return max(self.obligation_bound, self.merge_bound) + 5.0


@dataclass
class _Obligation:
    """One pending detection-latency requirement."""

    ip: IPAddress
    node: str
    died_at: float
    deadline: float
    #: which GSC instance was active when the failure happened
    gsc_epoch: int
    #: deadline already extended for a GSC failover
    extended_for_failover: bool = False


@dataclass
class _LeaderEpisode:
    """A multi-leader observation on one (vlan, island)."""

    leaders: frozenset
    since: float
    reported: bool = False


class InvariantMonitor:
    """Continuously checks protocol invariants against ground truth.

    Attach to a built (not necessarily started) farm, let discovery
    stabilize, then call :meth:`start`. Call :meth:`finalize` after the
    scenario has settled to run the quiescence checks. ``violations``,
    ``checks`` (per-invariant check counts) and ``latencies`` (resolved
    detection latencies, seconds) accumulate throughout.
    """

    def __init__(
        self,
        farm: Farm,
        windows: Optional[CheckWindows] = None,
        os_params: Optional[OSParams] = None,
        vlan_scope: Optional[Set[int]] = None,
    ) -> None:
        self.farm = farm
        self.sim = farm.sim
        #: when set, invariants are only asserted for adapters on these
        #: VLANs (the traffic plane passes its domains and the free pool).
        self.vlan_scope = frozenset(vlan_scope) if vlan_scope is not None else None
        self.windows = (
            windows
            if windows is not None
            else CheckWindows.from_params(farm.params, os_params)
        )
        self.violations: List[Violation] = []
        self.checks: Dict[str, int] = {
            "single_leader": 0,
            "membership_agreement": 0,
            "detection_latency": 0,
            "no_lost_adapter": 0,
            "verify_topology": 0,
        }
        self.latencies: List[float] = []
        #: obligations waived, by reason — ``repaired``: the failure was
        #: repaired before detection was due; ``gsc_failover``: a GSC
        #: failover legitimately forgot it — accounted so reports show
        #: coverage
        self.waived_by: Dict[str, int] = {"gsc_failover": 0, "repaired": 0}
        self._started = False
        self._finalized = False
        self._sweep_timer: Optional[Timer] = None
        #: ip -> simulated time the adapter went ground-truth silent
        self._deaths: Dict[IPAddress, float] = {}
        self._obligations: Dict[IPAddress, _Obligation] = {}
        self._episodes: Dict[Tuple[int, int], _LeaderEpisode] = {}
        #: count of gsc.activate events seen (the "GSC epoch")
        self._gsc_epoch = 0
        self._last_gsc_change = -1.0
        #: nic trace label -> ip, for decoding net.nic.* records
        self._nic_by_label = {
            nic.name: ip for ip, nic in farm.fabric.nics.items()
        }
        self._agreement_flagged: Set[Tuple[IPAddress, IPAddress]] = set()
        self.sim.trace.subscribe(self._on_trace)
        farm.bus.subscribe(self._on_note)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sweeping. Call after the initial discovery stabilized."""
        if self._started:
            return
        self._started = True
        self._sweep_timer = Timer(
            self.sim,
            self.windows.sweep_interval,
            self._sweep,
            initial_delay=self.windows.sweep_interval,
        )

    def stop(self) -> None:
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None
        self._started = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def waived(self) -> int:
        """Obligations waived, all reasons together."""
        return sum(self.waived_by.values())

    def _violate(self, invariant: str, subject: str, detail: str) -> None:
        self.violations.append(
            Violation(self.sim.now, invariant, subject, detail)
        )
        self.sim.trace.emit(
            self.sim.now, "checks.violation", subject, invariant=invariant
        )

    # ------------------------------------------------------------------
    # ground-truth event intake
    # ------------------------------------------------------------------
    def _on_trace(self, rec: TraceRecord) -> None:
        if rec.category == "net.nic.fail":
            ip = self._nic_by_label.get(rec.source)
            if ip is not None:
                self._adapter_down(ip, rec.data.get("mode", "fail_full"))
        elif rec.category == "net.nic.repair":
            ip = self._nic_by_label.get(rec.source)
            if ip is not None:
                self._adapter_repaired(ip)
        elif rec.category == "gsc.activate":
            self._gsc_epoch += 1
            self._last_gsc_change = rec.time

    def _adapter_down(self, ip: IPAddress, mode: str) -> None:
        now = self.sim.now
        # FAIL_RECV keeps transmitting: peers legitimately see it alive, so
        # it creates no silence and no detection obligation
        if mode == NicState.FAIL_RECV.value:
            self._deaths.pop(ip, None)
            return
        if ip in self._deaths:
            return  # already silent (e.g. nic.fail on a crashed node)
        self._deaths[ip] = now
        if not self._started or ip in self._obligations:
            return
        gsc = self.farm.gsc()
        if gsc is None or gsc.adapter_status(ip) is not True:
            return  # GSC never tracked it up: nothing to detect
        nic = self.farm.fabric.nics.get(ip)
        if not self._in_scope(nic.port.vlan if nic is not None and nic.port else None):
            return
        node = nic.node_name if nic is not None else "?"
        self._obligations[ip] = _Obligation(
            ip=ip,
            node=node,
            died_at=now,
            deadline=now + self.windows.obligation_bound,
            gsc_epoch=self._gsc_epoch,
        )

    def _adapter_repaired(self, ip: IPAddress) -> None:
        self._deaths.pop(ip, None)
        if self._obligations.pop(ip, None) is not None:
            # repaired before detection was due: no requirement remains
            self.waived_by["repaired"] += 1

    # ------------------------------------------------------------------
    # protocol-side event intake
    # ------------------------------------------------------------------
    def _on_note(self, note: Notification) -> None:
        if note.kind == "adapter_failed":
            ob = self._obligations.pop(IPAddress(note.subject), None)
            if ob is not None:
                self.checks["detection_latency"] += 1
                self.latencies.append(note.time - ob.died_at)
        elif note.kind == "move_completed" and self._started:
            self.sim.schedule(
                self.windows.detection_bound,
                self._check_move_settled,
                note.subject,
            )

    def _check_move_settled(self, subject: str) -> None:
        """A settle time after a completed move, the moved adapter's real
        VLAN must match the configuration database's expectation —
        topology verification must not regress because of the move."""
        if self._finalized:
            return
        configdb = self.farm.configdb
        try:
            ip = IPAddress(subject)
        except ValueError:
            return
        nic = self.farm.fabric.nics.get(ip)
        if configdb is None or nic is None or nic.port is None:
            return
        row = configdb.expected(ip)
        if not self._in_scope(nic.port.vlan) and not (
            row is not None and self._in_scope(row.vlan)
        ):
            return
        self.checks["verify_topology"] += 1
        if row is not None and nic.port.vlan != row.vlan:
            self._violate(
                "verify_topology",
                subject,
                f"moved adapter sits on vlan {nic.port.vlan} but the "
                f"configuration database expects vlan {row.vlan}",
            )

    # ------------------------------------------------------------------
    # ground-truth predicates
    # ------------------------------------------------------------------
    def _in_scope(self, vlan: Optional[int]) -> bool:
        if self.vlan_scope is None:
            return True
        return vlan is not None and vlan in self.vlan_scope

    def _segment_disturbed(self, vlan: int) -> bool:
        """Partitioned or lossy: deadlines pause rather than expire."""
        seg = self.farm.fabric.segments.get(vlan)
        if seg is None:
            return False
        return seg.partitioned or seg.quality.loss_probability > 0.0

    def _healthy(self, nic) -> bool:
        host = self.farm.hosts.get(nic.node_name)
        return (
            nic.state is NicState.OK
            and host is not None
            and not host.crashed
        )

    def _island_of(self, vlan: int, ip: IPAddress) -> int:
        seg = self.farm.fabric.segments.get(vlan)
        if seg is None or seg._islands is None:
            return -1
        return seg._islands.get(ip, -2)

    def _live_peers(self, ip: IPAddress) -> int:
        """Healthy same-island co-members that could detect ``ip``'s death."""
        nic = self.farm.fabric.nics.get(ip)
        if nic is None or nic.port is None:
            return 0
        vlan = nic.port.vlan
        seg = self.farm.fabric.segments.get(vlan)
        if seg is None:
            return 0
        island = self._island_of(vlan, ip)
        n = 0
        for peer_ip, peer in seg.members.items():
            if peer_ip == ip or not self._healthy(peer):
                continue
            if self._island_of(vlan, peer_ip) != island:
                continue
            n += 1
        return n

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        self._check_single_leader()
        self._check_membership_agreement()
        self._check_obligations()

    def _check_single_leader(self) -> None:
        now = self.sim.now
        leaders: Dict[Tuple[int, int], Set[IPAddress]] = {}
        for name in sorted(self.farm.daemons):
            daemon = self.farm.daemons[name]
            for proto in daemon.protocols.values():
                if proto.state is not AdapterState.LEADER:
                    continue
                nic = proto.nic
                if nic.port is None or not self._healthy(nic):
                    continue
                vlan = nic.port.vlan
                if not self._in_scope(vlan):
                    continue
                key = (vlan, self._island_of(vlan, nic.ip))
                leaders.setdefault(key, set()).add(nic.ip)
        self.checks["single_leader"] += len(leaders)
        for key, who in leaders.items():
            if len(who) <= 1:
                self._episodes.pop(key, None)
                continue
            vlan = key[0]
            frozen = frozenset(who)
            ep = self._episodes.get(key)
            if ep is None or ep.leaders != frozen:
                self._episodes[key] = _LeaderEpisode(leaders=frozen, since=now)
                continue
            if ep.reported:
                continue
            if self._segment_disturbed(vlan):
                ep.since = now  # merges can't proceed; restart the clock
                continue
            if now - ep.since > self.windows.merge_bound:
                ep.reported = True
                names = ", ".join(str(ip) for ip in sorted(who, key=int))
                self._violate(
                    "single_leader",
                    f"vlan{vlan}",
                    f"{len(who)} leaders [{names}] coexist past the "
                    f"{self.windows.merge_bound:.1f}s merge bound",
                )
        for key in [k for k in self._episodes if k not in leaders]:
            del self._episodes[key]

    def _check_membership_agreement(self) -> None:
        now = self.sim.now
        bound = self.windows.agreement_bound
        for name in sorted(self.farm.daemons):
            daemon = self.farm.daemons[name]
            for proto in daemon.protocols.values():
                if proto.state is not AdapterState.MEMBER or proto.view is None:
                    continue
                nic = proto.nic
                if nic.port is None or not self._healthy(nic):
                    continue
                if not self._in_scope(nic.port.vlan):
                    continue
                self.checks["membership_agreement"] += 1
                leader_ip = proto.view.leader_ip
                died = self._deaths.get(leader_ip)
                if died is None or now - died <= bound:
                    continue
                if self._segment_disturbed(nic.port.vlan):
                    continue
                flag = (nic.ip, leader_ip)
                if flag in self._agreement_flagged:
                    continue
                self._agreement_flagged.add(flag)
                self._violate(
                    "membership_agreement",
                    str(nic.ip),
                    f"still holds a view led by {leader_ip}, dead for "
                    f"{now - died:.1f}s (bound {bound:.1f}s)",
                )

    def _check_obligations(self) -> None:
        now = self.sim.now
        for ip in sorted(self._obligations, key=int):
            ob = self._obligations[ip]
            if now < ob.deadline:
                continue
            nic = self.farm.fabric.nics.get(ip)
            vlan = nic.port.vlan if nic is not None and nic.port else None
            # deadlines pause while the detection or reporting path is
            # disturbed (the bound assumes reliable delivery)
            disturbed = self._segment_disturbed(self.farm.admin_vlan)
            if vlan is not None and self._segment_disturbed(vlan):
                disturbed = True
            if disturbed:
                ob.deadline = now + self.windows.obligation_bound
                continue
            gsc = self.farm.gsc()
            if gsc is None or self._last_gsc_change > ob.died_at:
                # a GSC failover intervened: the new instance rebuilds its
                # table from resynced reports and may never have known the
                # dead adapter existed
                if not ob.extended_for_failover:
                    ob.extended_for_failover = True
                    ob.deadline = now + self.windows.gsc_failover_allowance
                    continue
                if gsc is None or gsc.adapter_status(ip) is not True:
                    del self._obligations[ip]
                    self.waived_by["gsc_failover"] += 1
                    self.checks["detection_latency"] += 1
                    continue
            if self._live_peers(ip) == 0:
                # no live AMG peer on the segment: nothing can observe the
                # silence, so the bound does not apply until one appears
                ob.deadline = now + self.windows.obligation_bound
                continue
            del self._obligations[ip]
            self.checks["detection_latency"] += 1
            self._violate(
                "detection_latency",
                str(ip),
                f"adapter of {ob.node} silent since t={ob.died_at:.2f} "
                f"({now - ob.died_at:.1f}s ago) never reported failed "
                f"(bound {self.windows.obligation_bound:.1f}s)",
            )

    # ------------------------------------------------------------------
    # quiescence checks
    # ------------------------------------------------------------------
    def finalize(self) -> List[Violation]:
        """Run the at-quiescence invariants; returns all violations.

        Call after every injected fault has been healed and the farm has
        run for at least :attr:`CheckWindows.settle_time` of calm.
        """
        self._sweep()
        self._finalized = True
        self.stop()
        gsc = self.farm.gsc()
        if gsc is None:
            self._violate(
                "no_lost_adapter", "gsc", "no active GulfStream Central at quiescence"
            )
            return self.violations
        for name in sorted(self.farm.hosts):
            host = self.farm.hosts[name]
            if host.crashed:
                continue
            for nic in host.adapters:
                if nic.state is not NicState.OK or nic.port is None:
                    continue
                if not self._in_scope(nic.port.vlan):
                    continue
                self.checks["no_lost_adapter"] += 1
                if gsc.adapter_status(nic.ip) is not True:
                    self._violate(
                        "no_lost_adapter",
                        str(nic.ip),
                        f"healthy adapter of {name} is "
                        f"{gsc.adapter_status(nic.ip)!r} in GSC's table",
                    )
        for ip in sorted(self._deaths, key=int):
            nic = self.farm.fabric.nics.get(ip)
            if not self._in_scope(
                nic.port.vlan if nic is not None and nic.port else None
            ):
                continue
            self.checks["no_lost_adapter"] += 1
            if gsc.adapter_status(ip) is True:
                self._violate(
                    "no_lost_adapter",
                    str(ip),
                    "ground-truth dead adapter still up in GSC's table",
                )
        if self.farm.configdb is not None:
            self.checks["verify_topology"] += 1
            for issue in gsc.verify_topology():
                if not self._issue_in_scope(issue.ip):
                    continue
                if issue.kind == "missing" and not self._ground_truth_up(issue.ip):
                    # a node left crashed (or an adapter left failed) at
                    # quiescence is *correctly* absent from the discovered
                    # topology — only a healthy adapter missing from GSC's
                    # picture is a protocol failure
                    continue
                self._violate(
                    "verify_topology",
                    str(issue.ip),
                    f"{issue.kind}: {issue.detail}",
                )
        return self.violations

    def _issue_in_scope(self, ip: IPAddress) -> bool:
        """Whether a topology-verification issue concerns a scoped VLAN."""
        if self.vlan_scope is None:
            return True
        nic = self.farm.fabric.nics.get(ip)
        if nic is not None and nic.port is not None and self._in_scope(nic.port.vlan):
            return True
        configdb = self.farm.configdb
        row = configdb.expected(ip) if configdb is not None else None
        return row is not None and self._in_scope(row.vlan)

    def _ground_truth_up(self, ip: IPAddress) -> bool:
        nic = self.farm.fabric.nics.get(ip)
        if nic is None or nic.state is not NicState.OK or nic.port is None:
            return False
        host = self.farm.hosts.get(nic.node_name)
        return host is not None and not host.crashed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """A plain-JSON summary (used by the campaign result rows)."""
        return {
            "checks": dict(sorted(self.checks.items())),
            "violations": [v.as_dict() for v in self.violations],
            "latencies": sorted(round(x, 6) for x in self.latencies),
            "waived": self.waived,
            "waived_by": dict(self.waived_by),
        }
