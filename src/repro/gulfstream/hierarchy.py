"""Multi-level reporting hierarchy — the §4.2 extension.

The prototype's hierarchy has two levels: adapters report to their AMG
leader, leaders report to GulfStream Central. The paper: "In the current
prototype, there are only two levels. However, this hierarchy could be
extended." and, on GSC scalability, "its function can be distributed. While
this would ameliorate the problem of heavy infrastructure management
traffic directed to and from a single node ... a decentralized approach
will be used if the experimental overhead suggests that it is necessary."

This module adds that third level as an opt-in: the farm is partitioned
into *zones* (e.g. one per customer domain), each zone designates an
aggregator node, AMG leaders send their membership reports to their zone's
aggregator instead of GSC, and the aggregator forwards them in batched
envelopes on a flush timer. GSC's logical view is unchanged — it unpacks
the same :class:`~repro.gulfstream.messages.MembershipReport` objects — but
the *frame* count and burst pressure at the central node drop, which is
exactly the quantity ``benchmarks/bench_hierarchy.py`` measures.

Failure handling matches the paper's wait-and-see spirit: an aggregator is
stateless between flushes, so losing one costs at most the reports buffered
in the current flush window; leaders whose zone has no (configured, living)
aggregator fall back to reporting directly to GSC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.messages import MembershipReport, membership_msg_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.daemon import GulfStreamDaemon

__all__ = ["AggregatedReport", "ZoneAggregator", "ZoneConfig"]


@dataclass(frozen=True)
class AggregatedReport:
    """A batch of membership reports forwarded by a zone aggregator."""

    aggregator: IPAddress
    zone: str
    reports: Tuple[MembershipReport, ...]


@dataclass
class ZoneConfig:
    """Static zone plan for one farm.

    ``vlan_zone`` maps each data VLAN to a zone name; ``aggregator_ips``
    maps each zone to the *administrative-adapter* address of its
    aggregator node (aggregators are reachable from every node by
    construction — all zones attach to the administrative network,
    Figure 1). VLANs without a zone, and zones without an aggregator,
    report directly to GSC.
    """

    vlan_zone: Dict[int, str] = field(default_factory=dict)
    aggregator_ips: Dict[str, IPAddress] = field(default_factory=dict)
    #: aggregator flush period: the batching/latency trade-off
    flush_interval: float = 1.0

    def aggregator_for_vlan(self, vlan: Optional[int]) -> Optional[IPAddress]:
        if vlan is None:
            return None
        zone = self.vlan_zone.get(vlan)
        if zone is None:
            return None
        return self.aggregator_ips.get(zone)

    def zone_of_ip(self, ip: IPAddress) -> Optional[str]:
        for zone, agg_ip in self.aggregator_ips.items():
            if agg_ip == ip:
                return zone
        return None


class ZoneAggregator:
    """The aggregator role on one node.

    Buffers incoming reports and forwards them to GulfStream Central as one
    :class:`AggregatedReport` per flush interval. Forwarding goes through
    the node's admin adapter exactly like a leader's direct report would,
    so GSC failover re-routing comes for free (the destination is looked up
    at flush time).
    """

    def __init__(self, daemon: "GulfStreamDaemon", config: ZoneConfig, zone: str) -> None:
        self.daemon = daemon
        self.config = config
        self.zone = zone
        self.sim = daemon.sim
        self._buffer: List[MembershipReport] = []
        self._flush_event = None
        # accounting
        self.reports_in = 0
        self.batches_out = 0
        self.flush_failures = 0

    # ------------------------------------------------------------------
    def handle_report(self, report: MembershipReport) -> None:
        """Buffer one report from an AMG leader in this zone."""
        self.reports_in += 1
        self._buffer.append(report)
        if self._flush_event is None or not self._flush_event.pending:
            self._flush_event = self.sim.schedule(
                self.config.flush_interval, self._flush
            )

    def _flush(self) -> None:
        self._flush_event = None
        if not self._buffer:
            return
        batch = AggregatedReport(
            aggregator=self.daemon.host.admin_adapter.ip,
            zone=self.zone,
            reports=tuple(self._buffer),
        )
        if self._send_to_gsc(batch):
            self.batches_out += 1
            self._buffer.clear()
            self.sim.trace.emit(
                self.sim.now, "gs.zone.flush", self.daemon.host.name,
                zone=self.zone, reports=len(batch.reports),
            )
        else:
            # no route to GSC yet: keep buffering and retry next flush
            self.flush_failures += 1
            self._flush_event = self.sim.schedule(
                self.config.flush_interval, self._flush
            )

    def _send_to_gsc(self, batch: AggregatedReport) -> bool:
        admin = self.daemon.admin_protocol
        if admin is None or admin.view is None:
            return False
        gsc_ip = admin.view.leader_ip
        size = sum(
            membership_msg_size(len(r.members) + len(r.added) + len(r.removed))
            for r in batch.reports
        )
        if gsc_ip == admin.ip:
            # this aggregator node *is* (also) GulfStream Central
            if self.daemon.central is not None and self.daemon.central.active:
                self.daemon.deliver_batch(batch)
                return True
            return False
        return admin.nic.send(gsc_ip, batch, size=size)

    def stop(self) -> None:
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._buffer.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ZoneAggregator({self.daemon.host.name}, zone={self.zone}, "
            f"in={self.reports_in}, out={self.batches_out})"
        )
