"""Scenario runner: farm + fault schedule + measurement.

A :class:`Scenario` wires a fault plan (or a randomized injector) onto a
built farm, runs it, and exposes the artifacts the experiments read:
stability time, notification history, trace counters, and per-segment
traffic totals. Its :meth:`Scenario.run` is the one scenario body: the
scripted-fault experiments and every traffic case
(:func:`repro.workload.traffic.run_sharded`) run through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.farm.builder import Farm
from repro.node.faults import FaultInjector, FaultPlan

__all__ = ["Scenario", "ScenarioResult"]


@dataclass
class ScenarioResult:
    """Everything a finished scenario yields."""

    stable_time: Optional[float]
    duration: float
    notifications: list
    counters: Dict[str, int]
    segment_stats: Dict[int, dict]
    #: faults armed but never fired — planned actions scheduled past the
    #: run horizon (e.g. behind a long ``stability_timeout``) plus churn
    #: crash/repair events still pending when the clock ran out. A
    #: non-empty list means the scenario did not exercise its full plan.
    unfired_faults: list = field(default_factory=list)

    def notes(self, kind: str) -> list:
        return [n for n in self.notifications if n.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for n in self.notifications if n.kind == kind)


class Scenario:
    """One runnable experiment on a farm."""

    def __init__(
        self,
        farm: Farm,
        plan: Optional[FaultPlan] = None,
        churn: Optional[dict] = None,
        duration: float = 120.0,
        ambient_load: Optional[Dict[int, float]] = None,
        stability_timeout: Optional[float] = None,
    ) -> None:
        """
        Parameters
        ----------
        farm:
            A built, not yet started farm.
        plan:
            Scripted faults, armed before the run.
        churn:
            Randomized node churn: ``{"mtbf": ..., "mttr": ...,
            "start": t}`` — starts a :class:`FaultInjector` at ``start``.
        duration:
            Simulated seconds to run.
        ambient_load:
            VLAN id → extra offered load (msgs/sec) modelling application
            traffic sharing the segments.
        stability_timeout:
            How long (simulated seconds) to wait for the initial
            discovery to stabilize before running the body of the
            scenario. Default: ``min(duration, 300.0)``.
        """
        self.farm = farm
        self.plan = plan
        self.churn_cfg = churn
        self.duration = duration
        self.ambient_load = ambient_load or {}
        self.stability_timeout = (
            stability_timeout if stability_timeout is not None
            else min(duration, 300.0)
        )
        self.injector: Optional[FaultInjector] = None

    def run(self) -> ScenarioResult:
        """Put the ambient load, scripted faults and churn onto the farm,
        wait for GSC stability, run to ``duration``, and close the run.
        Every fault that never fired is also traced as one
        ``scenario.fault.unfired`` record."""
        farm, plan, sim = self.farm, self.plan, self.farm.sim
        for vlan, load in self.ambient_load.items():
            farm.fabric.segment(vlan).ambient_load = load
        if plan is not None:
            plan.arm(sim, farm.fabric, farm.hosts)
        churn = self.churn_cfg
        injector: Optional[FaultInjector] = None
        if churn is not None:
            injector = self.injector = FaultInjector(
                sim,
                farm.hosts,
                mtbf=churn.get("mtbf", 300.0),
                mttr=churn.get("mttr", 30.0),
            )
            sim.schedule(churn.get("start", 0.0), injector.start)
        farm.start()
        stable = farm.run_until_stable(timeout=self.stability_timeout)
        if sim.now < self.duration:
            sim.run(until=self.duration)

        unfired: List[dict] = []
        if plan is not None:
            for act in plan.pending_actions():
                unfired.append({"time": act.time, "kind": act.kind, "target": act.target})
        if injector is not None:
            for node, kind in sorted(injector.pending_faults().items()):
                unfired.append({"time": None, "kind": f"churn.{kind}", "target": node})
        for entry in unfired:
            sim.trace.emit(
                sim.now,
                "scenario.fault.unfired",
                "scenario",
                kind=entry["kind"],
                target=entry["target"],
                planned_time=entry["time"],
            )
        segment_stats = {
            vlan: {
                "frames_sent": seg.frames_sent,
                "frames_delivered": seg.frames_delivered,
                "frames_lost": seg.frames_lost,
                "bytes_sent": seg.bytes_sent,
            }
            for vlan, seg in farm.fabric.segments.items()
        }
        gsc = farm.gsc()
        return ScenarioResult(
            stable_time=gsc.stable_time if gsc is not None else stable,
            duration=sim.now,
            notifications=list(farm.bus.history),
            counters=dict(sim.trace.counters),
            segment_stats=segment_stats,
            unfired_faults=unfired,
        )
