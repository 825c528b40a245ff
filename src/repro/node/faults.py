"""Fault injection.

Two styles:

* :class:`FaultPlan` — a scripted schedule of faults ("at t=30 crash
  node-7, at t=45 partition vlan 20"), used by integration tests and the
  reconfiguration benches.
* :class:`FaultInjector` — randomized churn (Poisson crash/repair), used by
  the detector-comparison and GSC-load benches to generate sustained
  membership-change traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.nic import NicState
from repro.node.host import Host
from repro.sim.engine import Simulator

__all__ = ["FaultInjector", "FaultPlan"]


@dataclass
class _Action:
    time: float
    kind: str
    target: str
    mode: Optional[NicState] = None
    groups: Optional[list] = None
    vlan: Optional[int] = None


@dataclass
class FaultPlan:
    """A scripted fault schedule, armed onto a simulator with :meth:`arm`.

    Arming is idempotent per simulator: re-arming onto the same simulator
    is a no-op, so a plan armed twice cannot double-fire its actions.
    """

    actions: List[_Action] = field(default_factory=list)
    _armed_on: Optional[Simulator] = field(default=None, init=False, repr=False, compare=False)

    # -- schedule builders ------------------------------------------------
    def crash_node(self, time: float, node: str) -> "FaultPlan":
        self.actions.append(_Action(time, "crash_node", node))
        return self

    def restart_node(self, time: float, node: str) -> "FaultPlan":
        self.actions.append(_Action(time, "restart_node", node))
        return self

    def fail_adapter(
        self, time: float, ip: str, mode: NicState = NicState.FAIL_FULL
    ) -> "FaultPlan":
        self.actions.append(_Action(time, "fail_adapter", ip, mode=mode))
        return self

    def repair_adapter(self, time: float, ip: str) -> "FaultPlan":
        self.actions.append(_Action(time, "repair_adapter", ip))
        return self

    def fail_switch(self, time: float, switch: str) -> "FaultPlan":
        self.actions.append(_Action(time, "fail_switch", switch))
        return self

    def repair_switch(self, time: float, switch: str) -> "FaultPlan":
        self.actions.append(_Action(time, "repair_switch", switch))
        return self

    def fail_router(self, time: float, router: str) -> "FaultPlan":
        self.actions.append(_Action(time, "fail_router", router))
        return self

    def repair_router(self, time: float, router: str) -> "FaultPlan":
        self.actions.append(_Action(time, "repair_router", router))
        return self

    def partition(self, time: float, vlan: int, groups: Sequence[Sequence[str]]) -> "FaultPlan":
        self.actions.append(
            _Action(time, "partition", f"vlan{vlan}", vlan=vlan, groups=[list(g) for g in groups])
        )
        return self

    def heal(self, time: float, vlan: int) -> "FaultPlan":
        self.actions.append(_Action(time, "heal", f"vlan{vlan}", vlan=vlan))
        return self

    # -- execution ---------------------------------------------------------
    def arm(self, sim: Simulator, fabric: Fabric, hosts: Dict[str, Host]) -> None:
        """Schedule every action onto ``sim``.

        Re-arming onto the same simulator is a no-op; arming onto a
        different simulator re-schedules the full plan afresh.
        """
        if self._armed_on is sim:
            return
        self._armed_on = sim
        for act in self.actions:
            sim.schedule_at(act.time, self._apply, act, fabric, hosts)

    @staticmethod
    def _apply(act: _Action, fabric: Fabric, hosts: Dict[str, Host]) -> None:
        if act.kind == "crash_node":
            hosts[act.target].crash()
        elif act.kind == "restart_node":
            hosts[act.target].restart()
        elif act.kind == "fail_adapter":
            fabric.nics[IPAddress(act.target)].fail(act.mode or NicState.FAIL_FULL)
        elif act.kind == "repair_adapter":
            fabric.nics[IPAddress(act.target)].repair()
        elif act.kind == "fail_switch":
            fabric.switches[act.target].fail()
        elif act.kind == "repair_switch":
            fabric.switches[act.target].repair()
        elif act.kind == "fail_router":
            fabric.routers[act.target].fail()
        elif act.kind == "repair_router":
            fabric.routers[act.target].repair()
        elif act.kind == "partition":
            assert act.vlan is not None and act.groups is not None
            fabric.segments[act.vlan].partition(
                [[IPAddress(ip) for ip in group] for group in act.groups]
            )
        elif act.kind == "heal":
            assert act.vlan is not None
            fabric.segments[act.vlan].heal()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown fault kind {act.kind!r}")


class FaultInjector:
    """Randomized node churn: exponential crash and repair times.

    Parameters
    ----------
    mtbf:
        Mean time between failures across the whole population (seconds):
        individual nodes crash as a Poisson process with aggregate rate
        ``len(hosts) / mtbf``... equivalently each up-node has rate 1/mtbf.
    mttr:
        Mean time to repair a crashed node.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Dict[str, Host],
        mtbf: float = 300.0,
        mttr: float = 30.0,
        name: str = "churn",
    ) -> None:
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        self.sim = sim
        self.hosts = hosts
        self.mtbf = mtbf
        self.mttr = mttr
        self.rng = sim.rng.stream(f"faults/{name}")
        self.crashes = 0
        self.repairs = 0
        self._armed = False
        self._stopped = False

    def start(self) -> None:
        """Arm one failure clock per host."""
        if self._armed:
            return
        self._armed = True
        for host in self.hosts.values():
            self._schedule_crash(host)

    def stop(self) -> None:
        """No further faults will be injected (pending ones are dropped)."""
        self._stopped = True

    def _schedule_crash(self, host: Host) -> None:
        delay = float(self.rng.exponential(self.mtbf))
        self.sim.schedule(delay, self._crash, host)

    def _crash(self, host: Host) -> None:
        if self._stopped or host.crashed:
            return
        host.crash()
        self.crashes += 1
        self.sim.schedule(float(self.rng.exponential(self.mttr)), self._repair, host)

    def _repair(self, host: Host) -> None:
        if self._stopped:
            return
        host.restart()
        self.repairs += 1
        self._schedule_crash(host)
