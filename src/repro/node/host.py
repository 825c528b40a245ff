"""Hosts: servers carrying network adapters.

A :class:`Host` is the unit the daemon runs on. It owns its adapters (the
OS-level "list of configured adapters" the daemon enumerates at start-up),
an :class:`~repro.node.osmodel.OSModel`, and crash/restart behaviour — a
crashed node takes *all* of its adapters down at once, which is exactly the
pattern GulfStream Central's correlation function looks for.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.nic import NIC, NicState
from repro.node.osmodel import OSModel, OSParams
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.daemon import GulfStreamDaemon

__all__ = ["Host"]


class Host:
    """One server in the farm."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        os_params: Optional[OSParams] = None,
        admin_eligible: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.adapters: List[NIC] = []
        self.os = OSModel(
            sim, name, os_params if os_params is not None else OSParams(), nics=self.adapters
        )
        #: may this node host GulfStream Central? In the paper only nodes
        #: with database and switch-console permission are eligible; they
        #: carry a small config file and flag it in their BEACONs (§2.2).
        self.admin_eligible = admin_eligible
        self.crashed = False
        #: the GulfStream daemon, installed by the farm builder
        self.daemon: Optional["GulfStreamDaemon"] = None

    # ------------------------------------------------------------------
    # adapters
    # ------------------------------------------------------------------
    def add_adapter(self, ip: IPAddress, fabric: Fabric, switch: str, vlan: int) -> NIC:
        """Create an adapter, wire it into the fabric, and register it.

        Adapter index 0 is the administrative adapter by convention.
        """
        nic = NIC(IPAddress(ip), self.name, index=len(self.adapters))
        fabric.attach(nic, switch, vlan)
        self.adapters.append(nic)
        return nic

    def adapter(self, index: int) -> NIC:
        return self.adapters[index]

    @property
    def admin_adapter(self) -> NIC:
        """Adapter 0 — the one on the administrative VLAN (paper convention)."""
        if not self.adapters:
            raise RuntimeError(f"{self.name} has no adapters")
        return self.adapters[0]

    def enumerate_adapters(self) -> List[NIC]:
        """What the daemon gets from the OS at start-up."""
        return list(self.adapters)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Hard-stop the node: daemon dies, every adapter goes dark."""
        if self.crashed:
            return
        self.crashed = True
        self.sim.trace.emit(self.sim.now, "node.crash", self.name)
        if self.daemon is not None:
            self.daemon.stop()
        for nic in self.adapters:
            nic.fail(NicState.FAIL_FULL)

    def restart(self) -> None:
        """Bring a crashed node back; adapters repair, daemon restarts."""
        if not self.crashed:
            return
        self.crashed = False
        self.sim.trace.emit(self.sim.now, "node.restart", self.name)
        for nic in self.adapters:
            nic.repair()
        if self.daemon is not None:
            self.daemon.start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "crashed" if self.crashed else "up"
        return f"Host({self.name}, adapters={len(self.adapters)}, {state})"
