"""The traffic plane: streamed user requests driving live domain moves.

This wires the workload generators into the farm end to end, the way the
paper frames GulfStream's purpose (§1: "Requests flowing into the farm go
through request dispatchers ... and dynamic reconfiguration must be
accomplished with minimal service interruption"):

* :func:`build_traffic_farm` — a multi-domain farm whose dispatcher node
  runs a :class:`~repro.farm.requests.TrafficSource` fed a
  :class:`~repro.workload.generators.RequestStream` (Poisson arrivals,
  truncated-Zipf domains, diurnal modulation): real ``Request``
  frames to the domains' front ends, one pending arrival at a time —
  millions of requests, constant memory.
* An :class:`~repro.workload.autoscaler.Autoscaler` watching measured
  per-domain arrivals and moving spare servers between the free pool and
  the domains through GSC/SNMP reconfig, live, while requests flow.
* An :class:`~repro.checks.invariants.InvariantMonitor` (VLAN-scoped to
  the domains and the free pool) plus an optional chaos mix on top, so the
  headline capacity number is *moves per hour sustained without invariant
  violation* and the availability/latency SLOs are measured during churn.

A case is one farm on one simulator; :func:`run_sharded` runs it and hands
over what it ran: the registry, the trace counters, the monitor's checks,
waivers and violations, and the faults the chaos mix planned.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.checks.campaign import CHAOS_PARAMS, MIXES, ChaosInjector
from repro.checks.invariants import CheckWindows, InvariantMonitor, monitor_trace
from repro.farm.builder import ADMIN_VLAN, FREE_POOL_VLAN, Farm, FarmBuilder
from repro.farm.domain import DISPATCH_VLAN, DOMAIN_VLAN_BASE
from repro.farm.requests import TrafficSource, deploy_service
from repro.metrics.core import MetricsRegistry
from repro.node.osmodel import OSParams
from repro.runner import run_sweep
from repro.workload.autoscaler import Autoscaler
from repro.workload.generators import STREAM_NAMES, RequestStream
from repro.workload.profiles import WORKLOAD_PROFILES, DiurnalProfile, SpikeSchedule

__all__ = [
    "TRAFFIC_START",
    "build_traffic_farm",
    "build_traffic_report",
    "render_traffic_report",
    "run_traffic_campaign",
    "run_traffic_case",
    "traffic_horizon",
]

#: simulated time the request stream opens; the farm must have discovered
#: and stabilized by then (CHAOS_PARAMS farms stabilize in ~10 s)
TRAFFIC_START = 20.0

#: post-traffic calm before the quiescence checks when no chaos ran
#: (with a mix, the monitor's own settle_time governs instead)
TRAFFIC_SETTLE = 10.0

#: the issuer's per-attempt timeout; front ends give up on Work after half
REQUEST_TIMEOUT = 1.5

#: the simulated "day" of the diurnal profiles, and its overnight trough
DIURNAL_PERIOD = 60.0
DIURNAL_TROUGH = 0.25

_DOMAIN_BASENAMES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def _domain_names(n: int) -> List[str]:
    names = list(_DOMAIN_BASENAMES[:n])
    names.extend(f"dom{k}" for k in range(len(names), n))
    return names


def _settle(mix: Optional[str]) -> float:
    if mix is None:
        return TRAFFIC_SETTLE
    windows = CheckWindows.from_params(CHAOS_PARAMS, OSParams.fast())
    return windows.settle_time


def traffic_horizon(duration: float, mix: Optional[str]) -> float:
    """Absolute sim-time horizon of one traffic case (stream + settle)."""
    return TRAFFIC_START + duration + _settle(mix) + 1.0


def _resolve_profile(kind: str, names: List[str], duration: float):
    """The stream's rate profile for shape ``kind`` (one of
    ``WORKLOAD_PROFILES``). Returns ``(profile, peak_factor)``."""
    if kind == "flat":
        # trough == 1.0 collapses the diurnal wave to a constant full rate
        return DiurnalProfile(period=DIURNAL_PERIOD, trough=1.0), 1.0
    diurnal = DiurnalProfile(
        period=DIURNAL_PERIOD, trough=DIURNAL_TROUGH, domains=names, stagger=True
    )
    if kind == "diurnal":
        return diurnal, diurnal.peak
    # flash: the diurnal baseline plus a scripted flash crowd on the most
    # popular domain, one third of the way into the stream
    spikes = SpikeSchedule({names[0]: (duration / 3.0, duration / 4.0, 0.5)})

    def flash(domain: str, t: float) -> float:
        return diurnal(domain, t) + spikes.extra(domain, t)

    return flash, 1.5


# ----------------------------------------------------------------------
# scoped chaos
# ----------------------------------------------------------------------
class _TrafficChaos(ChaosInjector):
    """A chaos injector confined to the domains' servers and VLANs.

    The general campaign injector may target any host, VLAN, or adapter.
    Here the monitor is VLAN-scoped to the domains and the free pool, and
    ``site-0`` is the only GSC-eligible node, so this subclass restricts
    every target set to the domain servers, spares, and domain-internal
    VLANs: every fault lands where the monitor watches, and none takes
    GulfStream Central down with it.
    """

    def __init__(self, farm: Farm, mix: str, hosts: Sequence[str], vlans: Sequence[int]) -> None:
        super().__init__(farm, mix)
        allowed_hosts = set(hosts)
        scope = set(vlans)
        self._hosts = sorted(h for h in self._hosts if h in allowed_hosts)
        self._data_vlans = [v for v in self._data_vlans if v in scope]
        self._lead_vlans = [v for v in self._lead_vlans if v in scope]
        self._data_nics = sorted(
            (
                nic.ip
                for name in sorted(allowed_hosts & set(farm.hosts))
                for nic in farm.hosts[name].adapters[1:]
                if nic.port is not None and nic.port.vlan in scope
            ),
            key=int,
        )


# ----------------------------------------------------------------------
# the farm
# ----------------------------------------------------------------------
def _build_case(
    domains: int = 2,
    front_ends: int = 1,
    back_ends: int = 3,
    spares: int = 2,
    rate: float = 120.0,
    duration: float = 30.0,
    mix: Optional[str] = None,
    profile: str = "diurnal",
    seed: int = 0,
    trace: Any = None,
) -> Tuple[Farm, InvariantMonitor, Dict[str, int]]:
    """An Océano farm with the whole traffic plane scheduled onto it, its
    invariant monitor, and the faults the chaos mix planned, by kind.

    Layout: the dispatcher node ``dispatch-0`` (admin + dispatch VLANs),
    ``site-0`` (the only GSC-eligible node, parked on the free pool), and
    per domain ``front_ends`` front ends, ``back_ends`` back ends — the
    first back end doubling as the free-pool *bridge* — plus ``spares``
    movable spares. Everything the case does (stream start/stop,
    autoscaler ticks, chaos faults, monitor start/finalize) is scheduled
    here at fixed simulated times, so the build fully determines the run.
    """
    if mix is not None and mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}: choose from {sorted(MIXES)}")
    if profile not in WORKLOAD_PROFILES:
        raise ValueError(
            f"unknown workload profile {profile!r}:"
            f" choose from {', '.join(WORKLOAD_PROFILES)}"
        )
    names = _domain_names(domains)
    b = FarmBuilder(
        seed=seed, params=CHAOS_PARAMS, os_params=OSParams.fast(), trace=trace
    ).switches(2)
    farm = b._farm
    b.add_node("dispatch-0", [ADMIN_VLAN, DISPATCH_VLAN])
    b.add_node("site-0", [ADMIN_VLAN, FREE_POOL_VLAN], admin_eligible=True)
    for k, name in enumerate(names):
        internal = DOMAIN_VLAN_BASE + k
        farm.domain_vlans[name] = internal
        nodes: List[str] = []
        for i in range(front_ends):
            node = f"{name}-fe-{i}"
            b.add_node(node, [ADMIN_VLAN, internal, DISPATCH_VLAN])
            nodes.append(node)
        for i in range(back_ends):
            node = f"{name}-be-{i}"
            # be-0 bridges the domain onto the free pool
            vlans = [ADMIN_VLAN, internal] + ([FREE_POOL_VLAN] if i == 0 else [])
            b.add_node(node, vlans)
            nodes.append(node)
        farm.domain_nodes[name] = nodes
    for i in range(spares):
        node = f"spare-{i}"
        b.add_node(node, [ADMIN_VLAN, FREE_POOL_VLAN])
        farm.spare_nodes.append(node)
    farm = b.finish()
    sim = farm.sim
    traffic_end = TRAFFIC_START + duration
    fe_ips = deploy_service(farm, REQUEST_TIMEOUT)

    # -- the source ----------------------------------------------------
    rate_profile, peak_factor = _resolve_profile(profile, names, duration)
    rngs = {n: sim.rng.stream(f"workload/{n}") for n in STREAM_NAMES}
    stream = RequestStream(
        names,
        base_rate=rate,
        duration=duration,
        profile=rate_profile,
        peak_factor=peak_factor,
        rngs=rngs,
    )
    TrafficSource(
        farm.hosts["dispatch-0"], fe_ips, stream, start_at=TRAFFIC_START,
        timeout=REQUEST_TIMEOUT,
    )

    # -- control plane ---------------------------------------------------
    windows = CheckWindows.from_params(farm.params, OSParams.fast())
    scope = set(farm.domain_vlans.values()) | {FREE_POOL_VLAN}
    monitor = InvariantMonitor(farm, windows=windows, vlan_scope=scope)
    sim.schedule_at(TRAFFIC_START, monitor.start)
    Autoscaler(farm, names, start_at=TRAFFIC_START, stop_at=traffic_end).start()
    faults: Dict[str, int] = {}
    if mix is not None:
        chaos = _TrafficChaos(
            farm, mix,
            hosts=[n for nodes in farm.domain_nodes.values() for n in nodes]
            + list(farm.spare_nodes),
            vlans=sorted(farm.domain_vlans.values()),
        )
        chaos.plan(start=TRAFFIC_START, duration=duration)
        faults = dict(sorted(chaos.counts.items()))
    sim.schedule_at(traffic_end + _settle(mix), monitor.finalize)
    return farm, monitor, faults


def build_traffic_farm(n_users: int = 1_000_000, **case: Any) -> Farm:
    """The traffic farm of one case: :func:`_build_case`'s farm for the
    same keywords (``domains``, ``front_ends``, ``back_ends``, ``spares``,
    ``rate``, ``duration``, ``mix``, ``profile``, ``seed``, ``trace``).

    ``n_users`` is ignored: the farm routes a request by its domain alone,
    so no run ranks a user. ``benchmarks/e2e`` passes it, and it goes with
    ROADMAP item 5's ``[benchmark]`` PR.
    """
    return _build_case(**case)[0]


# ----------------------------------------------------------------------
# one case → one row
# ----------------------------------------------------------------------
@dataclass
class TrafficRun:
    """What a traffic case's run leaves behind once its farm is freed."""

    stable_time: Optional[float]
    #: ``sim.now`` when the run ended
    duration: float
    #: the trace's per-category counts
    counters: Dict[str, int]
    #: the simulator's registry, detached from the simulator
    metrics: MetricsRegistry
    #: the monitor's checks per invariant, and its waived obligations
    checks: Dict[str, int]
    waived: int
    #: the monitor's violations, as :meth:`Violation.as_dict` rows
    violations: List[Dict[str, Any]]
    #: the faults the chaos mix planned, by kind (empty without a mix)
    faults: Dict[str, int]
    #: always 0 (one simulator, nothing crosses between simulators)
    cross_messages: int = 0


def run_sharded(farm_kwargs: Dict[str, Any], duration: float) -> TrafficRun:
    """Build the traffic case ``_build_case(**farm_kwargs)``, wait for GSC
    stability until ``TRAFFIC_START``, run it to ``duration``, and hand
    over what it ran.

    The name is a seam for ``benchmarks/e2e``: its ``traffic`` workload
    replaces ``repro.workload.traffic.run_sharded`` with a wrapper that
    captures this result (``duration``, ``metrics``, ``counters``,
    ``cross_messages``), so :func:`run_traffic_case` calls it through the
    module global. The name and ``cross_messages`` go with ROADMAP item
    5's ``[benchmark]`` PR. The result holds no reference to the farm:
    the farm is one web of reference cycles (sim <-> hosts), freed here
    rather than left for whatever the caller allocates next.
    """
    farm, monitor, faults = _build_case(trace=monitor_trace(), **farm_kwargs)
    sim = farm.sim
    farm.start()
    stable = farm.run_until_stable(timeout=TRAFFIC_START)
    sim.run(until=duration)
    gsc = farm.gsc()
    run = TrafficRun(
        stable_time=gsc.stable_time if gsc else stable,
        duration=sim.now,
        counters=dict(sim.trace.counters),
        metrics=sim.metrics.detach(),
        checks=dict(monitor.checks),
        waived=monitor.waived,
        violations=[v.as_dict() for v in monitor.violations],
        faults=faults,
    )
    del farm, sim, gsc, monitor
    gc.collect()
    return run


def run_traffic_case(
    case: int = 0,
    rep: int = 0,
    seed: int = 0,
    domains: int = 2,
    front_ends: int = 1,
    back_ends: int = 3,
    spares: int = 2,
    rate: float = 120.0,
    duration: float = 30.0,
    n_users: int = 100_000,
    mix: Optional[str] = None,
    profile: str = "diurnal",
    shards: int = 1,
) -> Dict:
    """Run one traffic case and fold it into a plain-JSON row.

    ``case`` and ``rep`` only differentiate the derived task seed when
    fanned out by :func:`run_traffic_campaign` (``rep`` is the replicate
    index of the same case). ``n_users`` is ignored (the farm routes by
    domain, see :func:`build_traffic_farm`) and ``shards`` must be 1:
    ``benchmarks/e2e`` passes both, and they go with ROADMAP item 5's
    ``[benchmark]`` PR.
    """
    if shards != 1:
        raise ValueError(f"a traffic case runs on one simulator: shards must be 1, got {shards!r}")
    kwargs = dict(
        domains=domains,
        front_ends=front_ends,
        back_ends=back_ends,
        spares=spares,
        rate=rate,
        duration=duration,
        mix=mix,
        profile=profile,
        seed=seed,
    )
    res = run_sharded(kwargs, traffic_horizon(duration, mix))
    reg = res.metrics
    names = _domain_names(domains)
    per_domain: Dict[str, Dict[str, Union[int, float]]] = {}
    totals = {"issued": 0, "completed": 0, "failed": 0, "retried": 0}
    moves = {"grow": 0, "shrink": 0}
    for name in names:
        issued = int(reg.counter("traffic.requests", domain=name).value)
        completed = int(reg.counter("traffic.completed", domain=name).value)
        failed = int(reg.counter("traffic.failed", domain=name).value)
        retried = int(reg.counter("traffic.retried", domain=name).value)
        grow = int(reg.counter("autoscaler.moves", domain=name, direction="grow").value)
        shrink = int(
            reg.counter("autoscaler.moves", domain=name, direction="shrink").value
        )
        per_domain[name] = {
            "issued": issued,
            "completed": completed,
            "failed": failed,
            "retried": retried,
            "fe_arrivals": int(reg.counter("traffic.fe.requests", domain=name).value),
            "availability": round(completed / issued, 6) if issued else 1.0,
            "moves": grow + shrink,
        }
        totals["issued"] += issued
        totals["completed"] += completed
        totals["failed"] += failed
        totals["retried"] += retried
        moves["grow"] += grow
        moves["shrink"] += shrink
    hist = reg.histogram("traffic.latency_s")
    latency = {
        "p50": round(hist.percentile(50), 6),
        "p90": round(hist.percentile(90), 6),
        "p99": round(hist.percentile(99), 6),
        "mean": round(hist.sum / hist.count, 6) if hist.count else 0.0,
    }
    total_moves = moves["grow"] + moves["shrink"]
    return {
        "seed": seed,
        "mix": mix,
        "duration": duration,
        "stable_time": round(res.stable_time, 6) if res.stable_time is not None else None,
        "requests": totals,
        "availability": (
            round(totals["completed"] / totals["issued"], 6) if totals["issued"] else 1.0
        ),
        "latency": latency,
        "domains": per_domain,
        "moves": {**moves, "total": total_moves},
        "moves_per_hour": (
            round(total_moves * 3600.0 / duration, 6) if not res.violations else 0.0
        ),
        "checks": res.checks,
        "waived": res.waived,
        "violations": res.violations,
        "faults": res.faults,
        # constant; benchmarks/e2e hashes the whole row (ROADMAP item 5)
        "n_islands": 1,
        "cross_messages": 0,
    }


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def run_traffic_campaign(
    cases: int = 3,
    *,
    jobs: int = 1,
    replicates: int = 1,
    base_seed: int = 0,
    cache: Any = None,
    metrics: Any = None,
    **case_kwargs: Any,
) -> List[Dict]:
    """Fan workload cases out over the runner pool; one row per task.

    ``replicates`` repeats every case with independently derived seeds —
    a second grid axis (``rep``), *not* the sweep fabric's averaging
    aggregation: a workload row is a structured SLO record (nested
    request/latency/violation maps), so replicates stay whole rows and
    :func:`build_traffic_report` folds them like extra cases.

    Rows are byte-identical for any ``jobs`` value (deterministic
    per-task seed derivation, grid-order results).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return run_sweep(
        run_traffic_case,
        grid={"case": list(range(cases)), "rep": list(range(replicates))},
        fixed=case_kwargs,
        jobs=jobs,
        experiment="workload",
        seed_arg="seed",
        base_seed=base_seed,
        cache=cache,
        metrics=metrics,
    )


def build_traffic_report(
    rows: List[Dict],
    base_seed: int = 0,
    mix: Optional[str] = None,
) -> Dict:
    """Fold case rows into the canonical workload SLO report.

    Replicate rows (same ``case``, different ``rep``) fold exactly like
    extra cases; the campaign header records how many of each there were.
    """
    totals = {"issued": 0, "completed": 0, "failed": 0, "retried": 0}
    moves = {"grow": 0, "shrink": 0, "total": 0}
    checks: Dict[str, int] = {}
    faults: Dict[str, int] = {}
    violations: List[Dict] = []
    latency_worst = {"p50": 0.0, "p90": 0.0, "p99": 0.0}
    traffic_seconds = 0.0
    waived = 0
    for row in rows:
        for key in totals:
            totals[key] += row["requests"][key]
        for key in ("grow", "shrink", "total"):
            moves[key] += row["moves"][key]
        for name, count in row["checks"].items():
            checks[name] = checks.get(name, 0) + count
        for name, count in row["faults"].items():
            faults[name] = faults.get(name, 0) + count
        for key in latency_worst:
            latency_worst[key] = max(latency_worst[key], row["latency"][key])
        traffic_seconds += row["duration"]
        waived += row["waived"]
        for v in row["violations"]:
            violations.append(
                {**v, "case": row["case"], "rep": row.get("rep", 0), "seed": row["seed"]}
            )
    violations.sort(key=lambda v: (v["case"], v["rep"], v["time"], v["invariant"]))
    availability = (
        round(totals["completed"] / totals["issued"], 6) if totals["issued"] else 1.0
    )
    moves_per_hour = (
        round(moves["total"] * 3600.0 / traffic_seconds, 6)
        if traffic_seconds and not violations
        else 0.0
    )
    cases = len({row["case"] for row in rows}) if rows else 0
    return {
        "campaign": {
            "cases": cases,
            "replicates": (len(rows) // cases) if cases else 1,
            "base_seed": base_seed,
            "mix": mix,
            "traffic_seconds": round(traffic_seconds, 6),
        },
        "requests": totals,
        "slo": {
            "availability": availability,
            "latency_worst": {k: round(v, 6) for k, v in latency_worst.items()},
        },
        "moves": moves,
        "moves_per_hour_sustained": moves_per_hour,
        "checks": dict(sorted(checks.items())),
        "faults_injected": dict(sorted(faults.items())),
        "obligations_waived": waived,
        "violations": violations,
        "ok": not violations,
    }


def render_traffic_report(report: Dict) -> str:
    """Human-readable summary for the CLI."""
    camp = report["campaign"]
    totals = report["requests"]
    slo = report["slo"]
    replicates = camp.get("replicates", 1)
    rep_part = f" replicates={replicates}" if replicates > 1 else ""
    lines = [
        f"workload campaign: cases={camp['cases']}{rep_part} "
        f"mix={camp['mix'] or 'none'} "
        f"traffic={camp['traffic_seconds']:.0f}s",
        f"requests: issued={totals['issued']} completed={totals['completed']} "
        f"failed={totals['failed']} retried={totals['retried']}",
        f"availability: {slo['availability']:.6f}",
        "latency (worst case over cases): "
        + " ".join(f"{k}={v * 1000:.1f}ms" for k, v in slo["latency_worst"].items()),
        f"moves: grow={report['moves']['grow']} shrink={report['moves']['shrink']}",
        f"moves/hour sustained without violation: "
        f"{report['moves_per_hour_sustained']:.1f}",
    ]
    if report["faults_injected"]:
        lines.append(
            "faults injected: "
            + " ".join(f"{k}={v}" for k, v in report["faults_injected"].items())
        )
    if report["violations"]:
        lines.append(f"VIOLATIONS: {len(report['violations'])}")
        for v in report["violations"]:
            lines.append(
                f"  [case{v['case']}/seed{v['seed']}] t={v['time']:.2f} "
                f"{v['invariant']} {v['subject']}: {v['detail']}"
            )
    else:
        lines.append("no invariant violations")
    return "\n".join(lines)
