"""Scenario runner: farm + fault schedule + measurement.

A :class:`Scenario` wires a fault plan (or a randomized injector) onto a
built farm, runs it, and exposes the artifacts the experiments read:
stability time, notification history, trace counters, and per-segment
traffic totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.farm.builder import Farm
from repro.node.faults import FaultInjector, FaultPlan

__all__ = ["Scenario", "ScenarioResult", "close_farm", "dress_farm", "run_classic"]


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


def dress_farm(
    farm: Farm,
    plan: Optional[FaultPlan],
    churn: Optional[Dict[str, float]],
    ambient_load: Dict[int, float],
) -> Optional[FaultInjector]:
    """Put a scenario's ambient load, scripted faults and churn onto a
    built, not yet started farm; returns the churn injector, if any.

    The one definition both the classic path and every shard island run,
    so the order events are scheduled in cannot differ between them.
    """
    sim = farm.sim
    for vlan, load in ambient_load.items():
        farm.fabric.segment(vlan).ambient_load = load
    if plan is not None:
        plan.arm(sim, farm.fabric, farm.hosts)
    if churn is None:
        return None
    injector = FaultInjector(
        sim,
        farm.hosts,
        mtbf=churn.get("mtbf", 300.0),
        mttr=churn.get("mttr", 30.0),
    )
    sim.schedule(churn.get("start", 0.0), injector.start)
    return injector


def close_farm(
    farm: Farm, plan: Optional[FaultPlan], injector: Optional[FaultInjector]
) -> Tuple[List[dict], Dict[int, dict]]:
    """A finished run's epilogue: ``(unfired faults, segment_stats)``.

    Every fault armed by :func:`dress_farm` that never fired is also
    traced as one ``scenario.fault.unfired`` record.
    """
    sim = farm.sim
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
    return unfired, segment_stats


def run_classic(
    farm: Farm,
    plan: Optional[FaultPlan],
    churn: Optional[Dict[str, float]],
    *,
    duration: float,
    ambient_load: Dict[int, float],
    stability_timeout: float,
    stop_when_stable: bool = False,
) -> Tuple[ScenarioResult, Optional[FaultInjector]]:
    """The classic body: dress a built farm, wait for GSC stability, run
    to ``duration``, close it; returns the result and the churn injector.
    :meth:`Scenario.run` and a one-worker :func:`repro.sim.shard.run_sharded`
    both run it."""
    sim = farm.sim
    injector = dress_farm(farm, plan, churn, ambient_load)
    farm.start()
    stable = farm.run_until_stable(timeout=stability_timeout)
    if not (stop_when_stable and stable is not None) and sim.now < duration:
        sim.run(until=duration)
    unfired, segment_stats = close_farm(farm, plan, injector)
    gsc = farm.gsc()
    return ScenarioResult(
        stable_time=gsc.stable_time if gsc is not None else stable,
        duration=sim.now,
        notifications=list(farm.bus.history),
        counters=dict(sim.trace.counters),
        segment_stats=segment_stats,
        unfired_faults=unfired,
    ), injector


class Scenario:
    """One runnable experiment on a farm."""

    def __init__(
        self,
        farm: Optional[Farm] = None,
        plan: Optional[FaultPlan] = None,
        churn: Optional[dict] = None,
        duration: float = 120.0,
        ambient_load: Optional[Dict[int, float]] = None,
        stability_timeout: Optional[float] = None,
        shards: Optional[Union[int, str]] = None,
        farm_factory: Optional[Callable[..., Farm]] = None,
        factory_kwargs: Optional[Dict[str, Any]] = None,
        cut_vlans: Optional[Sequence[int]] = None,
        trace_store: bool = True,
        trace_categories: Optional[Sequence[str]] = None,
        stop_when_stable: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        farm:
            A built farm (the classic single-simulator path). Mutually
            exclusive with sharded execution, which must rebuild the farm
            per island and therefore takes ``farm_factory`` instead.
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
        shards:
            ``None`` (default) runs the classic path on ``farm``.
            Anything else — a positive worker count or ``"auto"`` (one
            worker per VLAN island) — dispatches to
            :func:`repro.sim.shard.run_sharded` and requires
            ``farm_factory``; the run then returns a
            ``ShardedScenarioResult``.
        farm_factory / factory_kwargs:
            Module-level farm factory (e.g.
            :func:`~repro.farm.builder.build_farm`) and its keyword
            arguments; sharded workers re-run it per island. The factory
            must accept a ``trace=`` keyword.
        cut_vlans:
            VLANs treated as the cross-shard cut (default: the admin
            VLAN). Only meaningful with ``shards``.
        trace_store / trace_categories / stop_when_stable:
            Forwarded verbatim to :func:`repro.sim.shard.run_sharded`:
            whether island traces keep records at all, which categories
            they keep (counters are always maintained), and whether
            phase 1 may stop at GSC stability. Only meaningful with
            ``shards`` — the classic path's farm was already built with
            its trace.
        """
        if shards is not None:
            from repro.sim.shard import validate_shards

            validate_shards(shards)
            if farm_factory is None:
                raise ValueError(
                    "Scenario(shards=...) needs farm_factory: sharded execution "
                    "rebuilds the farm per island, so a pre-built farm cannot be used"
                )
            if farm is not None:
                raise ValueError("Scenario(shards=...): pass farm_factory, not a built farm")
        elif farm is None:
            raise ValueError("Scenario() needs a built farm (or shards= with farm_factory=)")
        elif farm_factory is not None or factory_kwargs is not None:
            raise ValueError("Scenario(farm_factory=...) is only meaningful with shards=")
        elif not trace_store or trace_categories is not None or stop_when_stable:
            raise ValueError(
                "trace_store/trace_categories/stop_when_stable are "
                "shard-runner options; they are only meaningful with shards="
            )
        self.farm = farm
        self.plan = plan
        self.churn_cfg = churn
        self.duration = duration
        self.ambient_load = ambient_load or {}
        self.stability_timeout = (
            stability_timeout if stability_timeout is not None
            else min(duration, 300.0)
        )
        self.shards = shards
        self.farm_factory = farm_factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.cut_vlans = cut_vlans
        self.trace_store = trace_store
        self.trace_categories = trace_categories
        self.stop_when_stable = stop_when_stable
        self.injector: Optional[FaultInjector] = None

    def run(self) -> ScenarioResult:
        if self.shards is not None:
            from repro.sim.shard import run_sharded

            return run_sharded(
                self.farm_factory,
                self.factory_kwargs,
                plan=self.plan,
                churn=self.churn_cfg,
                duration=self.duration,
                ambient_load=self.ambient_load,
                stability_timeout=self.stability_timeout,
                shards=self.shards,
                cut_vlans=self.cut_vlans,
                trace_store=self.trace_store,
                trace_categories=self.trace_categories,
                stop_when_stable=self.stop_when_stable,
            )
        assert self.farm is not None
        result, self.injector = run_classic(
            self.farm, self.plan, self.churn_cfg, duration=self.duration,
            ambient_load=self.ambient_load, stability_timeout=self.stability_timeout,
        )
        return result
