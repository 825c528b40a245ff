"""Sharded scenario execution: conservative time-stepped PDES over islands.

One big run becomes ``n_islands`` sub-simulations, each a full
:class:`~repro.sim.engine.Simulator` owning one island's hosts, stepped
in lockstep epochs of length ``lookahead`` by a coordinator in the
parent process. Cross-cut frames travel between epochs through the
:mod:`~repro.sim.shard.channel`. A run that would use one worker has
nothing to synchronise and runs the classic body instead.

Determinism argument (the layout-invariance claim, ``shards>=2``):

1. Each island's sub-simulation is a deterministic function of
   *(island build plan, per-epoch inbox sequence)* — the build replays
   the same factory with the same counters, RNG streams are name-keyed
   (order-independent), and the engine is deterministic.
2. Inboxes are deterministic: a message's ``(deliver_time, src_island,
   seq)`` key depends only on the sending island's deterministic
   execution, and the merge sorts by that key before scheduling.
3. What crosses a boundary — the :class:`ShardPlan` into a worker, an
   inbox into an island, an outbox and the final accounting back out —
   is an immutable value sent through a pipe as its pickle.
4. Worker layout therefore cannot influence any island's history; the
   equivalence suite pins ``shards=2`` ≡ ``"auto"`` on a three-island farm.

The epoch discipline matches the engine's ``run(until=X)`` contract
(events with ``when <= X`` fire): epoch *k* covers ``(E, E+L]``. A frame
crossing the cut at ``t`` in that window is stamped ``t + L``, which
lies in ``(E+L, E+2L]`` — strictly inside a later epoch — so injections
scheduled at the epoch barrier can never land in an island's past.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.farm.scenario import ScenarioResult, close_farm, dress_farm, run_classic
from repro.metrics.core import MetricsRegistry
from repro.node.faults import FaultPlan
from repro.runner.pool import PersistentWorkerPool, WorkerError
from repro.sim.shard.channel import CutMessage, ShardGateway, merge_inbox
from repro.sim.shard.context import ShardBuildContext, active
from repro.sim.shard.partition import IslandPartition, split_fault_actions
from repro.sim.trace import Trace

__all__ = [
    "IslandHost",
    "ShardPlan",
    "ShardWorker",
    "ShardedScenarioResult",
    "run_sharded",
    "validate_shards",
]


def validate_shards(shards: Union[int, str]) -> Union[int, str]:
    """Normalize/validate a ``shards`` value: a positive int or ``"auto"``."""
    if isinstance(shards, str):
        if shards.strip().lower() == "auto":
            return "auto"
        raise ValueError(f"shards must be a positive integer or 'auto', got {shards!r}")
    if isinstance(shards, bool) or not isinstance(shards, int):
        raise ValueError(f"shards must be a positive integer or 'auto', got {shards!r}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


@dataclass
class ShardPlan:
    """Everything a worker needs to build and run one island. Picklable,
    and read-only once built."""

    factory: Callable[..., Any]
    factory_kwargs: Dict[str, Any]
    partition: IslandPartition
    #: full-farm wiring rows for each island's ConfigDatabase
    configdb_rows: Tuple[Dict[str, Any], ...]
    #: island id -> fault actions owned by that island
    fault_actions: Dict[int, List[Any]] = field(default_factory=dict)
    churn: Optional[Dict[str, float]] = None
    ambient_load: Dict[int, float] = field(default_factory=dict)
    trace_store: bool = True
    trace_categories: Optional[Tuple[str, ...]] = None


@dataclass
class _WorkerInit:
    plan: ShardPlan
    island_ids: Tuple[int, ...]


class IslandHost:
    """One island's sub-simulation: build, step, account."""

    def __init__(self, plan: ShardPlan, island_id: int) -> None:
        part = plan.partition
        self.island_id = island_id
        ctx = ShardBuildContext(
            island_id=island_id,
            owned=frozenset(part.islands[island_id]),
            configdb_rows=plan.configdb_rows,
        )
        trace = Trace(store=plan.trace_store, categories=plan.trace_categories)
        with active(ctx):
            farm = plan.factory(trace=trace, **plan.factory_kwargs)
        self.farm = farm
        self.sim = farm.sim
        # replicate every switch of the full farm: switches_connected()
        # treats an unknown switch name as unreachable, and switch/router
        # fault actions are applied in every island
        for rec in part.records:
            farm.fabric.switch(rec.switch)
        # wire the cut segments to the cross-shard channel
        self.gateway = ShardGateway(island_id, part.lookahead, self.sim)
        for vlan, members in part.cut_members.items():
            seg = farm.fabric.segments.get(vlan)
            if seg is None:
                continue
            remote = {ip: isl for ip, isl in members.items() if isl != island_id}
            if remote:
                seg.remote_members = remote
                seg.remote_islands = tuple(sorted(set(remote.values())))
                seg.gateway = self.gateway
        # this island's share of the scenario: its own fault actions, and
        # churn only if it owns a host to crash
        actions = plan.fault_actions.get(island_id)
        self.fault_plan = FaultPlan(actions=list(actions)) if actions else None
        self.injector = dress_farm(
            farm, self.fault_plan, plan.churn if farm.hosts else None, plan.ambient_load
        )
        farm.start()

    # ------------------------------------------------------------------
    def deliver(self, messages: Sequence[CutMessage]) -> None:
        """Schedule an epoch's (pre-sorted) inbox for injection."""
        for message in messages:
            self.sim.schedule_at(message.deliver_time, self._inject, message)

    def _inject(self, message: CutMessage) -> None:
        seg = self.farm.fabric.segments.get(message.vlan)
        if seg is not None:
            seg.deliver_from_cut(message.frame, message.src_switch)

    def step(self, until: float) -> Dict[str, Any]:
        """Run to the epoch barrier; report outbox + stability."""
        self.sim.run(until=until)
        gsc = self.farm.gsc()
        return {
            "outbox": self.gateway.drain(),
            "stable_time": None if gsc is None else gsc.stable_time,
        }

    def finish(self) -> Dict[str, Any]:
        """Final per-island accounting."""
        sim, farm = self.sim, self.farm
        unfired, segment_stats = close_farm(farm, self.fault_plan, self.injector)
        gsc = farm.gsc()
        return {
            "stable_time": None if gsc is None else gsc.stable_time,
            "counters": dict(sim.trace.counters),
            "records": list(sim.trace.records),
            "notifications": list(farm.bus.history),
            "segment_stats": segment_stats,
            "unfired": unfired,
            "metrics": sim.metrics.dump(),
            "events_executed": sim.events_executed,
            "cross_sent": self.gateway.sent,
        }


class ShardWorker:
    """The state one pool worker holds: its assigned islands (the class is
    the pool's spawn-importable init function)."""

    def __init__(self, init: _WorkerInit) -> None:
        self.hosts = {i: IslandHost(init.plan, i) for i in init.island_ids}

    def step(self, payload: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
        """Deliver each island's inbox, then run all to the barrier."""
        for island_id, messages in payload["inbox"].items():
            self.hosts[island_id].deliver(messages)
        until = payload["until"]
        return {i: host.step(until) for i, host in self.hosts.items()}

    def finish(self, _payload: Any) -> Dict[int, Dict[str, Any]]:
        return {i: host.finish() for i, host in self.hosts.items()}


@dataclass
class ShardedScenarioResult(ScenarioResult):
    """A :class:`ScenarioResult` plus shard-plane artifacts."""

    #: k-way merged trace records across islands, ordered by
    #: ``(time, island_id, per-island index)``
    trace_records: list = field(default_factory=list)
    #: deterministically merged metrics registry (counters sum, gauges
    #: average, histogram buckets add — MetricsRegistry.merged semantics)
    metrics: Optional[MetricsRegistry] = None
    events_executed: int = 0
    n_islands: int = 0
    #: worker processes actually used (1 = the classic run, in this process)
    shards: int = 0
    lookahead: float = 0.0
    #: total cross-cut messages sent over the channel
    cross_messages: int = 0
    #: cut messages still in flight when the horizon ended (dropped,
    #: deterministically — both layouts drop the identical set)
    dropped_in_flight: int = 0


def run_sharded(
    factory: Callable[..., Any],
    factory_kwargs: Optional[Dict[str, Any]] = None,
    *,
    plan: Optional[FaultPlan] = None,
    churn: Optional[Dict[str, float]] = None,
    duration: float = 120.0,
    ambient_load: Optional[Dict[int, float]] = None,
    stability_timeout: Optional[float] = None,
    shards: Union[int, str] = "auto",
    cut_vlans: Optional[Sequence[int]] = None,
    trace_store: bool = True,
    trace_categories: Optional[Sequence[str]] = None,
    stop_when_stable: bool = False,
) -> ShardedScenarioResult:
    """Run one scenario sharded across VLAN islands.

    ``factory`` is a module-level farm factory (e.g.
    :func:`~repro.farm.builder.build_farm`) accepting a ``trace=``
    keyword; it is called once here, with the run's own trace, and once
    per island inside each worker.

    ``shards`` is a worker-process budget: ``"auto"`` means one worker
    per island; an int is clamped to the island count. When that leaves
    one worker (``shards=1``, or a one-island farm) the farm built here
    runs through :func:`~repro.farm.scenario.run_classic`, on one
    simulator with no cut (``n_islands=1``, ``cross_messages=0``).
    """
    factory_kwargs = dict(factory_kwargs or {})
    if "trace" in factory_kwargs:
        raise ValueError(
            "factory_kwargs may not carry 'trace': the shard runner owns "
            "per-island traces (pass trace_store/trace_categories instead)"
        )
    shards = validate_shards(shards)
    if stability_timeout is None:
        stability_timeout = min(duration, 300.0)
    categories = tuple(trace_categories) if trace_categories is not None else None

    # the full farm, built once: the classic run's farm, or the recon
    # pass yielding the partition, link qualities and expected topology
    farm = factory(trace=Trace(store=trace_store, categories=categories), **factory_kwargs)
    part = IslandPartition.from_farm(farm, cut_vlans=cut_vlans)
    n_islands = part.n_islands
    n_workers = n_islands if shards == "auto" else min(int(shards), n_islands)
    if n_workers == 1:
        result, _ = run_classic(
            farm, plan, churn, duration=duration, ambient_load=dict(ambient_load or {}),
            stability_timeout=stability_timeout, stop_when_stable=stop_when_stable,
        )
        sim = farm.sim
        one = ShardedScenarioResult(
            **vars(result),
            trace_records=list(sim.trace.records),
            metrics=MetricsRegistry.from_dump(sim.metrics.dump()),
            events_executed=sim.events_executed,
            n_islands=1,
            shards=1,
        )
        # the farm is one web of reference cycles (sim <-> hosts); free it
        # now rather than leave it for whatever the caller allocates next
        del farm, sim
        gc.collect()
        return one
    configdb_rows = tuple(farm.fabric.connections())
    fault_actions = split_fault_actions(plan, part) if plan is not None else {}
    del farm  # a whole farm; nothing below needs it

    worker_islands = [
        tuple(i for i in range(n_islands) if i % n_workers == w) for w in range(n_workers)
    ]
    shard_plan = ShardPlan(
        factory=factory,
        factory_kwargs=factory_kwargs,
        partition=part,
        configdb_rows=configdb_rows,
        fault_actions=fault_actions,
        churn=dict(churn) if churn is not None else None,
        ambient_load=dict(ambient_load or {}),
        trace_store=trace_store,
        trace_categories=categories,
    )
    pool = PersistentWorkerPool(
        ShardWorker, [_WorkerInit(shard_plan, ids) for ids in worker_islands]
    )
    try:
        lookahead = part.lookahead
        now = 0.0
        n_epochs = 0
        stable_time: Optional[float] = None
        pending: Dict[int, List[CutMessage]] = {i: [] for i in range(n_islands)}

        def step_to(target: float) -> None:
            nonlocal now, n_epochs, stable_time
            payloads = []
            for w in range(n_workers):
                inbox = {}
                for i in worker_islands[w]:
                    inbox[i] = merge_inbox(pending[i])
                    pending[i] = []
                payloads.append({"until": target, "inbox": inbox})
            try:
                results = pool.call_all("step", payloads)
            except WorkerError as exc:
                owned = worker_islands[exc.worker] if exc.worker is not None else ()
                raise WorkerError(
                    f"island(s) {', '.join(map(str, owned)) or '?'}, epoch {n_epochs} "
                    f"(barrier t={target:.6f}s): {exc}",
                    exc.worker,
                ) from exc
            now = target
            n_epochs += 1
            reports: Dict[int, Dict[str, Any]] = {}
            for worker_result in results:
                for island_id, report in worker_result.items():
                    reports[island_id] = report
                    for message in report["outbox"]:
                        pending[message.dst_island].append(message)
            if stable_time is None:
                for i in sorted(reports):
                    st = reports[i]["stable_time"]
                    if st is not None:
                        stable_time = st
                        break

        # phase 1: wait for GSC stability (mirrors Farm.run_until_stable)
        while stable_time is None and now < stability_timeout:
            step_to(min(now + lookahead, stability_timeout))
        # phase 2: the scenario body (mirrors Scenario.run)
        if not (stop_when_stable and stable_time is not None):
            while now < duration:
                step_to(min(now + lookahead, duration))
        dropped = sum(len(v) for v in pending.values())
        finals = pool.call_all("finish", [None] * n_workers)
        pool.stop()
    finally:
        pool.terminate()

    island_final: Dict[int, Dict[str, Any]] = {}
    for worker_result in finals:
        island_final.update(worker_result)
    ids = sorted(island_final)

    counters: Dict[str, int] = {}
    segment_stats: Dict[int, dict] = {}
    decorated_records: List[Tuple[float, int, int, Any]] = []
    decorated_notes: List[Tuple[float, int, int, Any]] = []
    unfired: List[dict] = []
    events_executed = 0
    cross_messages = 0
    final_stable: Optional[float] = None
    for i in ids:
        fin = island_final[i]
        for key, value in fin["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for vlan, stats in fin["segment_stats"].items():
            agg = segment_stats.setdefault(vlan, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                agg[key] += value
        for idx, record in enumerate(fin["records"]):
            decorated_records.append((record.time, i, idx, record))
        for idx, note in enumerate(fin["notifications"]):
            decorated_notes.append((note.time, i, idx, note))
        unfired.extend(fin["unfired"])
        events_executed += fin["events_executed"]
        cross_messages += fin["cross_sent"]
        if final_stable is None and fin["stable_time"] is not None:
            final_stable = fin["stable_time"]
    decorated_records.sort(key=lambda t: (t[0], t[1], t[2]))
    decorated_notes.sort(key=lambda t: (t[0], t[1], t[2]))

    metric_dumps = [island_final[i]["metrics"] for i in ids]
    merged_metrics = MetricsRegistry.merge_dumps(metric_dumps) if metric_dumps else None

    return ShardedScenarioResult(
        stable_time=final_stable if final_stable is not None else stable_time,
        duration=now,
        notifications=[t[3] for t in decorated_notes],
        counters=counters,
        segment_stats=segment_stats,
        unfired_faults=unfired,
        trace_records=[t[3] for t in decorated_records],
        metrics=merged_metrics,
        events_executed=events_executed,
        n_islands=n_islands,
        shards=n_workers,
        lookahead=lookahead,
        cross_messages=cross_messages,
        dropped_in_flight=dropped,
    )
