"""Farm construction.

Builds the simulator, fabric, hosts, and daemons for either the paper's
evaluation testbed (§4.1) or a full Océano-style multi-domain farm
(Figures 1–2), and provides the run-until-stable loop the experiments use.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.loss import LinkQuality
from repro.node.host import Host
from repro.node.osmodel import OSParams
from repro.gulfstream.configdb import ConfigDatabase
from repro.gulfstream.daemon import GulfStreamDaemon
from repro.gulfstream.hierarchy import ZoneConfig
from repro.gulfstream.notify import NotificationBus
from repro.gulfstream.params import GSParams
from repro.gulfstream.reconfig import ReconfigurationManager
from repro.farm.domain import (
    ADMIN_VLAN,
    DISPATCH_VLAN,
    DOMAIN_VLAN_BASE,
    FarmSpec,
)
from repro.sim.engine import Simulator

__all__ = ["Farm", "FarmBuilder", "build_farm", "build_testbed", "FREE_POOL_VLAN"]

#: VLAN parking spare nodes' domain-facing adapters
FREE_POOL_VLAN = 99

#: simulated seconds :meth:`Farm.run_until_stable` runs between looks at GSC
_STABLE_POLL = 0.5


class Farm:
    """A built farm: simulator + network + hosts + daemons + bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        params: GSParams,
        bus: NotificationBus,
        configdb: Optional[ConfigDatabase],
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.params = params
        self.bus = bus
        self.configdb = configdb
        self.hosts: Dict[str, Host] = {}
        self.daemons: Dict[str, GulfStreamDaemon] = {}
        #: domain name -> VLAN id of the domain-internal network
        self.domain_vlans: Dict[str, int] = {}
        #: domain name -> names of member nodes
        self.domain_nodes: Dict[str, List[str]] = {}
        #: names of spare-pool nodes
        self.spare_nodes: List[str] = []
        self.admin_vlan = ADMIN_VLAN

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every daemon (each after its node's boot delay)."""
        for daemon in self.daemons.values():
            daemon.start()

    def run_until_stable(self, timeout: float = 300.0) -> Optional[float]:
        """Run until GulfStream Central declares the discovery stable.

        Returns the stability time (the Figure 5 measurement) or ``None``
        on timeout.
        """
        while self.sim.now < timeout:
            self.sim.run(until=min(self.sim.now + _STABLE_POLL, timeout))
            g = self.gsc()
            if g is not None and g.stable_time is not None:
                return g.stable_time
        return None

    # ------------------------------------------------------------------
    def gsc(self):
        """The currently active GulfStream Central instance (or None)."""
        for daemon in self.daemons.values():
            if daemon.is_gsc:
                return daemon.central
        return None

    def gsc_host(self) -> Optional[Host]:
        for name, daemon in self.daemons.items():
            if daemon.is_gsc:
                return self.hosts[name]
        return None

    def reconfig(self) -> ReconfigurationManager:
        """A reconfiguration manager bound to the live GSC."""
        g = self.gsc()
        if g is None:
            raise RuntimeError("no active GulfStream Central")
        return ReconfigurationManager(g)

    # ------------------------------------------------------------------
    def leader_of_vlan(self, vlan: int):
        """The adapter protocol currently leading the VLAN's AMG (or None)."""
        from repro.gulfstream.adapter_proto import AdapterState

        for daemon in self.daemons.values():
            for proto in daemon.protocols.values():
                if (
                    proto.state is AdapterState.LEADER
                    and proto.nic.port is not None
                    and proto.nic.port.vlan == vlan
                ):
                    return proto
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Farm(nodes={len(self.hosts)}, vlans={len(self.fabric.segments)}, "
            f"domains={list(self.domain_vlans)})"
        )


class FarmBuilder:
    """Incremental farm construction (used by both canned builders)."""

    def __init__(
        self,
        seed: int = 0,
        params: Optional[GSParams] = None,
        os_params: Optional[OSParams] = None,
        quality: Optional[LinkQuality] = None,
        with_configdb: bool = True,
        trace=None,
    ) -> None:
        self.sim = Simulator(seed=seed, trace=trace)
        self.fabric = Fabric(self.sim, default_quality=quality)
        self.params = params if params is not None else GSParams()
        self.os_params = os_params if os_params is not None else OSParams()
        self.bus = NotificationBus()
        self.with_configdb = with_configdb
        self._farm = Farm(self.sim, self.fabric, self.params, self.bus, None)
        self._ip_counter: Dict[int, int] = {}
        self._switch_rr = 0
        self._n_switches = 1
        self._zones: Optional[ZoneConfig] = None

    # ------------------------------------------------------------------
    def switches(self, n: int) -> "FarmBuilder":
        self._n_switches = max(1, n)
        return self

    def with_zones(self, zones: ZoneConfig) -> "FarmBuilder":
        """Enable the §4.2 multi-level reporting hierarchy."""
        self._zones = zones
        return self

    def _next_switch(self) -> str:
        name = f"switch-{self._switch_rr % self._n_switches}"
        self._switch_rr += 1
        return name

    def _alloc_ip(self, vlan: int) -> IPAddress:
        """Adapter IPs are ``10.<vlan>.<hi>.<lo>`` — unique and readable."""
        n = self._ip_counter.get(vlan, 0) + 1
        self._ip_counter[vlan] = n
        if n > 60000:
            raise ValueError(f"too many adapters on vlan {vlan}")
        return IPAddress(f"10.{vlan % 256}.{n // 250}.{n % 250 + 1}")

    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        vlans: List[int],
        admin_eligible: bool = False,
        switch: Optional[str] = None,
    ) -> Host:
        """One node with one adapter per listed VLAN (first = admin)."""
        sw = switch if switch is not None else self._next_switch()
        host = Host(self.sim, name, os_params=self.os_params, admin_eligible=admin_eligible)
        for vlan in vlans:
            host.add_adapter(self._alloc_ip(vlan), self.fabric, sw, vlan)
        self._farm.hosts[name] = host
        return host

    # ------------------------------------------------------------------
    def finish(self) -> Farm:
        """Create daemons (and the config DB snapshot) and return the farm."""
        farm = self._farm
        if self.with_configdb:
            farm.configdb = ConfigDatabase.from_fabric(self.fabric)
        for name, host in farm.hosts.items():
            farm.daemons[name] = GulfStreamDaemon(
                host, self.fabric, self.params, bus=self.bus,
                configdb=farm.configdb, zones=self._zones,
            )
        return farm


# ----------------------------------------------------------------------
# canned farms
# ----------------------------------------------------------------------
def build_zoned_farm(
    n_zones: int,
    nodes_per_zone: int,
    seed: int = 0,
    params: Optional[GSParams] = None,
    os_params: Optional[OSParams] = None,
    vlans_per_zone: int = 3,
    flush_interval: float = 1.0,
    use_zones: bool = True,
    trace=None,
) -> Farm:
    """A farm shaped for the §4.2 hierarchy experiment.

    ``n_zones`` customer zones of ``nodes_per_zone`` servers, each zone
    with ``vlans_per_zone`` data VLANs (so each zone hosts that many AMGs —
    a node crash produces one report per AMG, which is what the
    aggregation tier batches), plus two admin-eligible management nodes.
    The first node of each zone doubles as the zone's report aggregator
    when ``use_zones`` is set; with ``use_zones=False`` the identical farm
    runs the flat two-level hierarchy, which is the bench's baseline.
    """
    if n_zones < 1 or nodes_per_zone < 1 or vlans_per_zone < 1:
        raise ValueError("need at least one zone/node/vlan")
    b = FarmBuilder(
        seed=seed, params=params, os_params=os_params, trace=trace
    )
    zones = ZoneConfig(flush_interval=flush_interval)
    for m in range(2):
        b.add_node(f"mgmt-{m}", [ADMIN_VLAN], admin_eligible=True)
    for z in range(n_zones):
        zone_name = f"zone-{z}"
        zone_vlans = [20 + z * vlans_per_zone + j for j in range(vlans_per_zone)]
        for vlan in zone_vlans:
            zones.vlan_zone[vlan] = zone_name
        for i in range(nodes_per_zone):
            host = b.add_node(f"z{z}-n{i}", [ADMIN_VLAN] + zone_vlans)
            if i == 0:
                zones.aggregator_ips[zone_name] = host.adapters[0].ip
    if use_zones:
        b.with_zones(zones)
    return b.finish()



def build_testbed(
    n_nodes: int,
    seed: int = 0,
    params: Optional[GSParams] = None,
    os_params: Optional[OSParams] = None,
    quality: Optional[LinkQuality] = None,
    adapters_per_node: int = 3,
    trace=None,
) -> Farm:
    """The §4.1 evaluation testbed.

    ``n_nodes`` heterogeneous servers, ``adapters_per_node`` network
    adapters each (the paper's testbed had three), one broadcast VLAN per
    adapter class — so the discovery run forms exactly
    ``adapters_per_node`` AMGs, and Figure 5's x-axis (total adapters) is
    ``n_nodes * adapters_per_node``.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    b = FarmBuilder(
        seed=seed, params=params, os_params=os_params, quality=quality, trace=trace
    )
    vlans = [ADMIN_VLAN] + [10 + i for i in range(adapters_per_node - 1)]
    for i in range(n_nodes):
        # the prototype's convention lets any node host GulfStream Central
        b.add_node(f"node-{i:02d}", vlans, admin_eligible=True)
    return b.finish()


def build_farm(
    spec: FarmSpec,
    seed: int = 0,
    params: Optional[GSParams] = None,
    os_params: Optional[OSParams] = None,
    quality: Optional[LinkQuality] = None,
    trace=None,
) -> Farm:
    """An Océano-style multi-domain farm (Figures 1 and 2).

    Layout per domain ``k`` (VLAN ``DOMAIN_VLAN_BASE + k`` internal):

    * front ends: admin + internal + dispatcher adapters;
    * back ends: admin + internal adapters;
    * extra layers: admin + layer-VLAN adapters.

    Plus farm-wide: request dispatchers (admin + dispatcher VLANs),
    admin-eligible management nodes (admin VLAN only), and optional spare
    nodes parked on the free-pool VLAN.
    """
    spec.validate()
    b = FarmBuilder(
        seed=seed, params=params, os_params=os_params, quality=quality, trace=trace
    ).switches(spec.switches)
    farm = b._farm

    for m in range(spec.management_nodes):
        b.add_node(f"mgmt-{m}", [ADMIN_VLAN], admin_eligible=True)
    for d in range(spec.dispatchers):
        b.add_node(f"dispatch-{d}", [ADMIN_VLAN, DISPATCH_VLAN])

    next_layer_vlan = DOMAIN_VLAN_BASE + 1000  # extra layers park far away
    for k, dom in enumerate(spec.domains):
        internal = DOMAIN_VLAN_BASE + k
        farm.domain_vlans[dom.name] = internal
        nodes: List[str] = []
        for i in range(dom.front_ends):
            name = f"{dom.name}-fe-{i}"
            b.add_node(name, [ADMIN_VLAN, internal, DISPATCH_VLAN])
            nodes.append(name)
        for i in range(dom.back_ends):
            name = f"{dom.name}-be-{i}"
            b.add_node(name, [ADMIN_VLAN, internal])
            nodes.append(name)
        for layer_index, size in enumerate(dom.extra_layers):
            layer_vlan = next_layer_vlan
            next_layer_vlan += 1
            for i in range(size):
                name = f"{dom.name}-l{layer_index + 3}-{i}"
                b.add_node(name, [ADMIN_VLAN, internal, layer_vlan])
                nodes.append(name)
        farm.domain_nodes[dom.name] = nodes

    for i in range(spec.spare_nodes):
        name = f"spare-{i}"
        b.add_node(name, [ADMIN_VLAN, FREE_POOL_VLAN])
        farm.spare_nodes.append(name)

    return b.finish()
