"""The farm-wide network fabric.

A :class:`Fabric` ties the pieces together: it owns the switches, realizes
one :class:`~repro.net.segment.Segment` per VLAN id (VLANs are trunked
across switches, as on the paper's Cisco 6509 testbed), attaches adapters to
switch ports, and keeps the ``segments`` map an adapter's send looks its
port's *current* VLAN up in (:meth:`NIC.send_frames
<repro.net.nic.NIC.send_frames>`) — which is how an SNMP VLAN change
transparently moves an adapter into a different broadcast domain.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addressing import IPAddress
from repro.net.loss import LinkQuality
from repro.net.nic import NIC
from repro.net.router import Router
from repro.net.segment import Segment
from repro.net.switch import Port, Switch
from repro.sim.engine import Simulator

__all__ = ["Fabric"]


class Fabric:
    """All network state for one simulated server farm."""

    def __init__(self, sim: Simulator, default_quality: Optional[LinkQuality] = None) -> None:
        self.sim = sim
        self.switches: Dict[str, Switch] = {}
        self.segments: Dict[int, Segment] = {}
        self.nics: Dict[IPAddress, NIC] = {}
        #: inter-switch trunk devices; empty means fully trunked
        self.routers: Dict[str, Router] = {}
        #: quality model handed to newly created segments
        self.default_quality = default_quality
        #: live count of currently failed switches, maintained by
        #: Switch.fail/repair — zero lets the delivery path skip the
        #: per-receiver switch/router eligibility walk entirely
        self.failed_switches = 0
        self._reach_cache: Optional[Dict[str, int]] = None
        # farm-wide adapter totals, pulled from the per-NIC tallies only
        # when a metrics sample/export is taken (segments register their
        # own per-VLAN collectors)
        reg = sim.metrics
        self._m_nic_sent = reg.counter("net.nic.frames_sent")
        self._m_nic_received = reg.counter("net.nic.frames_received")
        self._m_nic_send_drops = reg.counter("net.nic.send_drops")
        self._m_nic_recv_drops = reg.counter("net.nic.recv_drops")
        self._m_nic_attached = reg.gauge("net.nic.attached")
        # totals carried by adapters that were later detached — keeps the
        # farm-wide counters monotonic across reconfiguration
        self._detached_totals = [0, 0, 0, 0]
        reg.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        for nic in self.nics.values():
            nic._settle()  # multicast records not yet billed count as received
        sent, received, send_drops, recv_drops = self._detached_totals
        for nic in self.nics.values():
            sent += nic.sent
            received += nic.received
            send_drops += nic.send_drops
            recv_drops += nic.recv_drops
        self._m_nic_sent.set_total(sent)
        self._m_nic_received.set_total(received)
        self._m_nic_send_drops.set_total(send_drops)
        self._m_nic_recv_drops.set_total(recv_drops)
        self._m_nic_attached.set(len(self.nics))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def switch(self, name: str) -> Switch:
        """Return (creating if needed) the named switch."""
        sw = self.switches.get(name)
        if sw is None:
            sw = Switch(name, self)
            self.switches[name] = sw
            self.invalidate_reachability()
        return sw

    def segment(self, vlan: int, quality: Optional[LinkQuality] = None) -> Segment:
        """Return (creating if needed) the segment realizing ``vlan``."""
        seg = self.segments.get(vlan)
        if seg is None:
            seg = Segment(self, vlan, quality if quality is not None else self.default_quality)
            self.segments[vlan] = seg
        elif quality is not None:
            seg.quality = quality
        return seg

    def add_router(self, name: str, switches: "list[str]") -> Router:
        """Register a trunk router between the named switches (creating
        the switches if needed)."""
        if name in self.routers:
            raise ValueError(f"duplicate router name: {name}")
        for sw in switches:
            self.switch(sw)
        router = Router(name, self, switches)
        self.routers[name] = router
        self.invalidate_reachability()
        return router

    # ------------------------------------------------------------------
    # inter-switch reachability
    # ------------------------------------------------------------------
    def invalidate_reachability(self) -> None:
        """Drop the cached switch-connectivity components (router event)."""
        self._reach_cache = None

    def _components(self) -> Dict[str, int]:
        """Union-find the switches into connectivity components."""
        parent = {name: name for name in self.switches}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for router in self.routers.values():
            if router.failed:
                continue
            swlist = [sw for sw in router.switches if sw in parent]
            for a, b in zip(swlist, swlist[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        labels: Dict[str, int] = {}
        ids: Dict[str, int] = {}
        for name in parent:
            root = find(name)
            labels.setdefault(root, len(labels))
            ids[name] = labels[root]
        return ids

    def switches_connected(self, a: str, b: str) -> bool:
        """Can frames flow between these switches?

        With no routers registered every switch pair is trunked (the
        original fully-connected fabric); otherwise both must sit in the
        same healthy-router component.
        """
        if a == b:
            return True
        if not self.routers:
            return True
        if self._reach_cache is None:
            self._reach_cache = self._components()
        comp = self._reach_cache
        return comp.get(a) is not None and comp.get(a) == comp.get(b)

    def attach(self, nic: NIC, switch_name: str, vlan: int, port_index: Optional[int] = None) -> Port:
        """Wire ``nic`` into a switch port assigned to ``vlan``."""
        if nic.ip in self.nics and self.nics[nic.ip] is not nic:
            raise ValueError(f"duplicate IP in fabric: {nic.ip}")
        sw = self.switch(switch_name)
        port = sw.port(port_index) if port_index is not None else sw.next_free_port()
        if port.nic is not None and port.nic is not nic:
            raise ValueError(f"port {port.name} already occupied by {port.nic.name}")
        port.nic = nic
        port.vlan = vlan
        nic.port = port
        nic.fabric = self
        self.nics[nic.ip] = nic
        self.segment(vlan).join(nic)
        return port

    def detach(self, nic: NIC) -> None:
        """Remove an adapter from the fabric entirely."""
        nic._settle()
        if self.nics.get(nic.ip) is nic:
            totals = self._detached_totals
            totals[0] += nic.sent
            totals[1] += nic.received
            totals[2] += nic.send_drops
            totals[3] += nic.recv_drops
        if nic.port is not None:
            if nic.port.vlan is not None and nic.port.vlan in self.segments:
                self.segments[nic.port.vlan].leave(nic)
            nic.port.nic = None
            nic.port = None
        self.nics.pop(nic.ip, None)
        nic.fabric = None

    # ------------------------------------------------------------------
    # reconfiguration (invoked via the SNMP console)
    # ------------------------------------------------------------------
    def move_port_vlan(self, switch_name: str, port_index: int, new_vlan: int) -> None:
        """Reassign a port's VLAN, silently moving its adapter's broadcast
        domain — the daemon on that node is *not* notified (paper §3.1)."""
        sw = self.switches.get(switch_name)
        if sw is None:
            raise KeyError(f"no such switch: {switch_name}")
        port = sw.ports.get(port_index)
        if port is None:
            raise KeyError(f"no such port: {switch_name}/p{port_index}")
        old_vlan = port.vlan
        if old_vlan == new_vlan:
            return
        if port.nic is not None:
            if old_vlan is not None and old_vlan in self.segments:
                self.segments[old_vlan].leave(port.nic)
            self.segment(new_vlan).join(port.nic)
        port.vlan = new_vlan
        self.sim.trace.emit(
            self.sim.now, "net.vlan.move", port.name,
            old=old_vlan, new=new_vlan,
            nic=port.nic.name if port.nic else None,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def connections(self) -> list[dict]:
        """Physical wiring table: one row per attached adapter.

        This is what the future-work SNMP topology query would return; the
        configuration database is initialized from it in the experiments.
        """
        rows = []
        for sw in self.switches.values():
            for port in sw.ports.values():
                if port.nic is not None:
                    rows.append(
                        {
                            "ip": port.nic.ip,
                            "nic": port.nic.name,
                            "node": port.nic.node_name,
                            "switch": sw.name,
                            "port": port.index,
                            "vlan": port.vlan,
                        }
                    )
        rows.sort(key=lambda r: int(r["ip"]))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Fabric(switches={len(self.switches)}, vlans={len(self.segments)}, "
            f"nics={len(self.nics)})"
        )
