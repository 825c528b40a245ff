"""The GulfStream daemon.

"GulfStream runs on all nodes within the server farm as a user level
daemon. This daemon discovers and monitors all adapters on a node" (§2.1).

The daemon:

* enumerates the host's adapters at start-up (after a boot delay) and runs
  one :class:`~repro.gulfstream.adapter_proto.AdapterProtocol` per adapter;
* routes incoming frames to the owning protocol through the host's OS model
  (serialized handling — the daemon is single-threaded in effect);
* forwards membership reports from local AMG-leader adapters to GulfStream
  Central through the node's administrative adapter (Figure 3);
* hosts the :class:`~repro.gulfstream.central.GulfStreamCentral` role while
  this node's admin adapter leads the administrative AMG, and triggers
  full-report resyncs whenever the admin leader changes (GSC failover).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.snmp import SwitchConsole
from repro.gulfstream.adapter_proto import AdapterProtocol, AdapterState
from repro.gulfstream.central import GulfStreamCentral
from repro.gulfstream.configdb import ConfigDatabase
from repro.gulfstream.hierarchy import AggregatedReport, ZoneAggregator, ZoneConfig
from repro.gulfstream.messages import MembershipReport, ReportAck, membership_msg_size
from repro.gulfstream.notify import NotificationBus
from repro.gulfstream.params import GSParams

__all__ = ["GulfStreamDaemon"]


class GulfStreamDaemon:
    """One daemon per host.

    Parameters
    ----------
    host:
        The server this daemon runs on (``host.daemon`` is set to this).
    fabric:
        The farm's network fabric (used only for the switch console when
        this node hosts GSC; all protocol I/O goes through the NICs).
    params:
        Protocol parameters, shared across the farm in the experiments.
    bus:
        The notification bus GSC publishes on (shared across the farm so
        experiments can observe whoever currently hosts GSC).
    configdb:
        Optional configuration database; only ever read by the GSC role.
    zones:
        Optional :class:`~repro.gulfstream.hierarchy.ZoneConfig` enabling
        the §4.2 multi-level reporting hierarchy: leaders report to their
        zone's aggregator, which batches to GSC.
    """

    def __init__(
        self,
        host,
        fabric: Fabric,
        params: Optional[GSParams] = None,
        bus: Optional[NotificationBus] = None,
        configdb: Optional[ConfigDatabase] = None,
        zones: Optional[ZoneConfig] = None,
    ) -> None:
        self.host = host
        self.fabric = fabric
        self.sim = host.sim
        self.params = params if params is not None else GSParams()
        self.params.validate()
        self.bus = bus if bus is not None else NotificationBus()
        self.configdb = configdb
        self.protocols: Dict[int, AdapterProtocol] = {}
        self.central: Optional[GulfStreamCentral] = None
        self.zones = zones
        self.aggregator: Optional[ZoneAggregator] = None
        #: frames carrying reports that arrived at this node's admin
        #: adapter (the SCALE-GSC-HIER bench's central-pressure metric)
        self.report_frames_in = 0
        self._report_seq = 0
        #: seq -> report awaiting a ReportAck from the zone aggregator
        self._pending_acks: Dict[int, MembershipReport] = {}
        self.running = False
        self._gen = 0
        self._admin_leader_seen: Optional[IPAddress] = None
        host.daemon = self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start (or restart) the daemon after the host's boot delay."""
        if self.running:
            return
        self.running = True
        self._gen += 1
        gen = self._gen
        self.sim.schedule(self.host.os.boot_delay(), self._boot, gen)

    def _boot(self, gen: int) -> None:
        if not self.running or gen != self._gen:
            return
        self.sim.trace.emit(self.sim.now, "gs.daemon.start", self.host.name)
        if self.zones is not None and self.host.adapters:
            zone = self.zones.zone_of_ip(self.host.admin_adapter.ip)
            if zone is not None and self.aggregator is None:
                self.aggregator = ZoneAggregator(self, self.zones, zone)
        self.protocols = {}
        for nic in self.host.enumerate_adapters():
            proto = AdapterProtocol(self, nic, self.params)
            self.protocols[nic.index] = proto
            nic.bind(proto.receive, proto)
        for proto in self.protocols.values():
            proto.start()

    def stop(self) -> None:
        """Stop everything (node crash or shutdown)."""
        if not self.running:
            return
        self.running = False
        self._gen += 1
        self.sim.trace.emit(self.sim.now, "gs.daemon.stop", self.host.name)
        for proto in self.protocols.values():
            proto.stop()
            proto.nic.handler = None
        if self.central is not None:
            self.central.deactivate()
        if self.aggregator is not None:
            self.aggregator.stop()
            self.aggregator = None
        self._admin_leader_seen = None

    # ------------------------------------------------------------------
    # admin hierarchy plumbing (Figure 3)
    # ------------------------------------------------------------------
    @property
    def admin_protocol(self) -> Optional[AdapterProtocol]:
        """The protocol instance of the administrative adapter (index 0)."""
        return self.protocols.get(0)

    def on_view_installed(self, proto: AdapterProtocol) -> None:
        """Protocol callback after every commit; manages the GSC role."""
        if not proto.is_admin_adapter or proto.view is None:
            return
        i_am_gsc = proto.state is AdapterState.LEADER
        if i_am_gsc:
            if self.central is None:
                console = SwitchConsole(self.fabric, authorized=self.host.admin_eligible)
                self.central = GulfStreamCentral(
                    self, self.params, self.bus, configdb=self.configdb, console=console
                )
            self.central.activate()
        elif self.central is not None:
            self.central.deactivate()
        new_leader = proto.view.leader_ip
        if new_leader != self._admin_leader_seen:
            previous = self._admin_leader_seen
            self._admin_leader_seen = new_leader
            if previous is not None:
                # GSC moved: re-sync it with full membership from every AMG
                # this node leads
                for p in self.protocols.values():
                    if p is not proto and p.state is AdapterState.LEADER:
                        p.resend_full_report()

    def send_report(self, report: MembershipReport, vlan: Optional[int] = None) -> bool:
        """Send a membership report up the hierarchy via the admin adapter.

        With a zone plan, the report goes to the reporting group's zone
        aggregator (§4.2 extension); otherwise — and as the fallback for
        zoneless VLANs — directly to GulfStream Central. Returns False when
        no route exists yet (caller retries).
        """
        admin = self.admin_protocol
        if admin is None or admin.view is None:
            return False
        size = membership_msg_size(
            len(report.members) + len(report.added) + len(report.removed)
        )
        if self.zones is not None:
            agg_ip = self.zones.aggregator_for_vlan(vlan)
            if agg_ip is not None:
                if agg_ip == admin.ip:
                    # I am my zone's aggregator
                    if self.aggregator is not None:
                        self.aggregator.handle_report(report)
                        return True
                    return False
                # acked hop: a dead aggregator must not swallow the report
                self._report_seq += 1
                tracked = MembershipReport(
                    leader=report.leader, group_key=report.group_key,
                    epoch=report.epoch, kind=report.kind,
                    members=report.members, added=report.added,
                    removed=report.removed, node=report.node,
                    stable=report.stable, seq=self._report_seq,
                )
                self._pending_acks[tracked.seq] = tracked
                sent = admin.nic.send(agg_ip, tracked, size=size)
                self.sim.schedule(
                    2 * self.zones.flush_interval + 1.0,
                    self._check_report_ack, tracked.seq,
                )
                return sent
        gsc_ip = admin.view.leader_ip
        if gsc_ip == admin.ip:
            # this node *is* GulfStream Central: deliver locally
            if self.central is not None and self.central.active:
                self.central.handle_report(report)
                return True
            return False
        return admin.nic.send(gsc_ip, report, size=size)

    def _check_report_ack(self, seq: int) -> None:
        report = self._pending_acks.pop(seq, None)
        if report is None or not self.running:
            return
        # the aggregator never confirmed: go straight to GSC
        self.sim.trace.emit(self.sim.now, "gs.zone.fallback", self.host.name, seq=seq)
        admin = self.admin_protocol
        if admin is None or admin.view is None:
            return
        gsc_ip = admin.view.leader_ip
        size = membership_msg_size(
            len(report.members) + len(report.added) + len(report.removed)
        )
        if gsc_ip == admin.ip:
            if self.central is not None and self.central.active:
                self.central.handle_report(report)
        else:
            admin.nic.send(gsc_ip, report, size=size)

    def on_report_ack(self, ack: ReportAck) -> None:
        self._pending_acks.pop(ack.seq, None)

    def on_report_frame(
        self, proto: AdapterProtocol, report: MembershipReport, src=None
    ) -> None:
        """A report arrived over the wire at our admin adapter."""
        self.report_frames_in += 1
        if self.aggregator is not None:
            if src is not None and report.seq:
                proto.nic.send(src, ReportAck(sender=proto.ip, seq=report.seq))
            # the aggregator role takes precedence: batch toward GSC (which
            # may be this very node — the batch then delivers locally)
            self.aggregator.handle_report(report)
            return
        if self.central is not None and self.central.active:
            self.central.handle_report(report)
        else:
            self.sim.trace.emit(
                self.sim.now, "gs.report.lost", self.host.name, group=report.group_key
            )

    def on_batch_frame(self, proto: AdapterProtocol, batch: AggregatedReport) -> None:
        """An aggregator's batch arrived over the wire at our admin adapter."""
        self.report_frames_in += 1
        self.deliver_batch(batch)

    def deliver_batch(self, batch: AggregatedReport) -> None:
        """Unpack an aggregated batch into GulfStream Central."""
        if self.central is not None and self.central.active:
            for report in batch.reports:
                self.central.handle_report(report)
        else:
            self.sim.trace.emit(
                self.sim.now, "gs.report.lost", self.host.name,
                zone=batch.zone, batched=len(batch.reports),
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_gsc(self) -> bool:
        return self.central is not None and self.central.active

    def protocol_for(self, ip: IPAddress) -> Optional[AdapterProtocol]:
        ip = IPAddress(ip)
        for p in self.protocols.values():
            if p.ip == ip:
                return p
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = " [GSC]" if self.is_gsc else ""
        return f"GulfStreamDaemon({self.host.name}, adapters={len(self.protocols)}{role})"
