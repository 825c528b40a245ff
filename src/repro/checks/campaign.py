"""The chaos campaign driver behind ``gulfstream-sim chaos``.

A *case* is one farm put through one randomized fault mix under an
:class:`~repro.checks.invariants.InvariantMonitor`: stabilize, inject a
burst of faults drawn from the mix's weights, heal everything, settle,
and run the quiescence checks. A *campaign* fans cases out over
seeds × mixes through the :mod:`repro.runner` pool and folds the rows
into one machine-readable report.

Determinism: every random draw comes from the case simulator's named
``chaos/...`` stream, all fault parameters are drawn up front at plan
time, and the report contains no wall-clock data — two campaigns with the
same arguments produce byte-identical reports, regardless of ``--jobs``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence

from repro.checks.invariants import CheckWindows, InvariantMonitor, monitor_trace
from repro.farm.builder import (
    ADMIN_VLAN,
    Farm,
    build_farm,
    build_testbed,
)
from repro.farm.domain import DomainSpec, FarmSpec
from repro.gulfstream.params import GSParams
from repro.net.loss import LinkQuality
from repro.node.osmodel import OSParams
from repro.runner import run_sweep
from repro.sim.trace import Trace

__all__ = [
    "CHAOS_PARAMS",
    "ChaosInjector",
    "MIXES",
    "build_named_farm",
    "build_report",
    "render_report",
    "run_campaign",
    "run_chaos_case",
    "write_report",
]

#: protocol parameters for chaos runs: the default timing scaled down so a
#: case's detection/merge bounds — and with them the settle phase — stay
#: short enough to sweep hundreds of cases, while keeping every protocol
#: mechanism (retries, probing, staggered takeover) engaged
CHAOS_PARAMS = GSParams(
    beacon_duration=3.0,
    amg_stable_wait=2.0,
    gsc_stable_wait=4.0,
    hb_interval=0.5,
    probe_timeout=0.5,
    suspect_retries=1,
    suspect_retry_interval=0.5,
    report_retry_interval=0.5,
    orphan_timeout=2.5,
    takeover_stagger=0.5,
    move_window=15.0,
    move_deadline=30.0,
)

#: named fault mixes: action -> weight (normalized at draw time)
MIXES: Dict[str, Dict[str, float]] = {
    "crash": {"crash": 1.0},
    "adapters": {"adapter": 0.5, "flap": 0.5},
    "partition": {"partition": 0.6, "loss": 0.4},
    "leader": {"leader_kill": 0.7, "sched_spike": 0.3},
    "mixed": {
        "crash": 0.25,
        "adapter": 0.20,
        "flap": 0.10,
        "partition": 0.15,
        "loss": 0.10,
        "leader_kill": 0.10,
        "sched_spike": 0.05,
        "move": 0.05,
    },
}


# ----------------------------------------------------------------------
# farm construction
# ----------------------------------------------------------------------
def oceano_spec(total: int) -> FarmSpec:
    """An Océano-style farm spec with exactly ``total`` nodes.

    Two management nodes, two dispatchers, ~10% spares, and the remaining
    servers split across up to three domains with a 1:3 front/back ratio.
    """
    if total < 8:
        raise ValueError(f"an oceano farm needs at least 8 nodes, got {total}")
    spares = max(2, total // 10)
    servers = total - 2 - 2 - spares
    n_domains = 3 if servers >= 18 else (2 if servers >= 8 else 1)
    base, extra = divmod(servers, n_domains)
    names = ["alpha", "bravo", "charlie"][:n_domains]
    domains = []
    for i, name in enumerate(names):
        size = base + (1 if i < extra else 0)
        fe = max(1, size // 4)
        domains.append(DomainSpec(name, front_ends=fe, back_ends=size - fe))
    spec = FarmSpec(
        domains=domains,
        dispatchers=2,
        management_nodes=2,
        switches=2,
        spare_nodes=spares,
    )
    assert spec.total_nodes == total, (spec.total_nodes, total)
    return spec


_FARM_RE = re.compile(r"^(testbed|oceano)(\d+)$")


def build_named_farm(
    name: str,
    seed: int = 0,
    params: Optional[GSParams] = None,
    os_params: Optional[OSParams] = None,
    trace: Optional[Trace] = None,
) -> Farm:
    """Build a farm from a campaign farm name.

    ``testbedN`` — the §4.1 flat testbed, N nodes × 3 adapters;
    ``oceanoN`` — an Océano-style multi-domain farm with N nodes total
    (``oceano55`` approximates the paper's 55-node deployment).
    """
    m = _FARM_RE.match(name)
    if m is None:
        raise ValueError(
            f"unknown farm {name!r}: expected testbedN or oceanoN"
        )
    kind, n = m.group(1), int(m.group(2))
    if kind == "testbed":
        return build_testbed(
            n, seed=seed, params=params, os_params=os_params, trace=trace
        )
    return build_farm(
        oceano_spec(n), seed=seed, params=params, os_params=os_params, trace=trace
    )


# ----------------------------------------------------------------------
# fault actions
# ----------------------------------------------------------------------
class ChaosInjector:
    """Plans and applies one case's randomized fault schedule.

    All randomness is drawn at :meth:`plan` time from the simulator's
    ``chaos/<mix>`` stream; the only fire-time resolution is *which*
    adapter currently leads a VLAN (a leader-targeted kill must aim at
    the leader at kill time, not at plan time). The traffic plane
    subclasses it to confine the targets to its monitored VLANs.
    """

    #: NIC failure modes the adapter/flap actions cycle through
    _MODES = ["fail_full", "fail_send", "fail_recv"]

    def __init__(self, farm: Farm, mix: str) -> None:
        self.farm = farm
        self.sim = farm.sim
        self.rng = farm.sim.rng.stream(f"chaos/{mix}")
        self.weights = MIXES[mix]
        self.counts: Dict[str, int] = {}
        #: vlan -> pristine quality object, for loss-burst restoration
        self._base_quality = {
            vlan: seg.quality for vlan, seg in farm.fabric.segments.items()
        }
        self._hosts = sorted(farm.hosts)
        #: attached non-admin adapters (admin stays so reports flow)
        self._data_nics = sorted(
            (
                nic.ip
                for host in farm.hosts.values()
                for nic in host.adapters[1:]
                if nic.port is not None
            ),
            key=int,
        )
        self._data_vlans = sorted(
            vlan
            for vlan, seg in farm.fabric.segments.items()
            if vlan != ADMIN_VLAN and len(seg.members) >= 2
        )
        self._lead_vlans = sorted(
            vlan
            for vlan, seg in farm.fabric.segments.items()
            if len(seg.members) >= 2
        )

    # -- planning -------------------------------------------------------
    def plan(self, start: float, duration: float) -> float:
        """Schedule the case's faults inside ``[start, start+duration)``
        and a heal-everything event at the end; returns the heal time.

        No fault fires in the last two seconds of the window, so the
        heal is guaranteed to be the final state change.
        """
        rng = self.rng
        kinds = sorted(self.weights)
        weights = [self.weights[k] for k in kinds]
        total_w = sum(weights)
        probs = [w / total_w for w in weights]
        n = 6 + int(rng.integers(0, 5))
        times = sorted(rng.uniform(1.0, max(1.5, duration - 2.0), n))
        for offset in times:
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            planner = getattr(self, f"_plan_{kind}")
            planner(start + float(offset))
        heal_at = start + duration
        self.sim.schedule_at(heal_at, self._heal_all)
        return heal_at

    def _count(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _pick(self, seq):
        return seq[int(self.rng.integers(0, len(seq)))] if seq else None

    # -- individual actions (randomness drawn here, at plan time) -------
    def _plan_crash(self, t: float) -> None:
        name = self._pick(self._hosts)
        downtime = float(self.rng.uniform(5.0, 15.0))
        self.sim.schedule_at(t, self._crash_host, name)
        self.sim.schedule_at(t + downtime, self._restart_host, name)
        self._count("crash")

    def _plan_adapter(self, t: float) -> None:
        ip = self._pick(self._data_nics)
        if ip is None:
            return
        mode = self._MODES[int(self.rng.integers(0, len(self._MODES)))]
        repair = float(self.rng.uniform(4.0, 12.0))
        self.sim.schedule_at(t, self._fail_nic, ip, mode)
        self.sim.schedule_at(t + repair, self._repair_nic, ip)
        self._count("adapter")

    def _plan_flap(self, t: float) -> None:
        ip = self._pick(self._data_nics)
        if ip is None:
            return
        gap = float(self.rng.uniform(0.2, 0.5))
        for i in range(3):
            at = t + i * 2.0 * gap
            self.sim.schedule_at(at, self._fail_nic, ip, "fail_full")
            self.sim.schedule_at(at + gap, self._repair_nic, ip)
        self._count("flap")

    def _plan_partition(self, t: float) -> None:
        vlan = self._pick(self._data_vlans)
        if vlan is None:
            return
        members = sorted(self.farm.fabric.segments[vlan].members, key=int)
        cut = 1 + int(self.rng.integers(0, max(1, len(members) - 1)))
        order = [members[i] for i in self.rng.permutation(len(members))]
        island = sorted(order[:cut], key=int)
        heal = float(self.rng.uniform(4.0, 10.0))
        self.sim.schedule_at(t, self._partition_vlan, vlan, island)
        self.sim.schedule_at(t + heal, self._heal_vlan, vlan)
        self._count("partition")

    def _plan_loss(self, t: float) -> None:
        vlan = self._pick(self._data_vlans)
        if vlan is None:
            return
        p = float(self.rng.uniform(0.1, 0.3))
        restore = float(self.rng.uniform(3.0, 8.0))
        self.sim.schedule_at(t, self._set_loss, vlan, p)
        self.sim.schedule_at(t + restore, self._restore_quality, vlan)
        self._count("loss")

    def _plan_leader_kill(self, t: float) -> None:
        vlan = self._pick(self._lead_vlans)
        if vlan is None:
            return
        downtime = float(self.rng.uniform(5.0, 12.0))
        self.sim.schedule_at(t, self._kill_leader, vlan, t + downtime)
        self._count("leader_kill")

    def _plan_sched_spike(self, t: float) -> None:
        name = self._pick(self._hosts)
        spike = float(self.rng.uniform(0.5, 2.0))
        self.sim.schedule_at(t, self._spike_host, name, spike)
        self._count("sched_spike")

    def _plan_move(self, t: float) -> None:
        if len(self._data_vlans) < 2 or not self._data_nics:
            return
        ip = self._pick(self._data_nics)
        nic = self.farm.fabric.nics[ip]
        targets = [v for v in self._data_vlans if nic.port and v != nic.port.vlan]
        target = self._pick(sorted(targets))
        if target is None:
            return
        # a partition of the destination VLAN lands mid-reconfiguration
        self.sim.schedule_at(t, self._move_adapter, ip, target)
        members = sorted(self.farm.fabric.segments[target].members, key=int)
        if len(members) >= 2:
            island = members[: max(1, len(members) // 2)]
            self.sim.schedule_at(t + 0.3, self._partition_vlan, target, island)
            self.sim.schedule_at(t + 3.3, self._heal_vlan, target)
        self._count("move")

    # -- fire-time appliers --------------------------------------------
    def _crash_host(self, name: str) -> None:
        self.farm.hosts[name].crash()

    def _restart_host(self, name: str) -> None:
        self.farm.hosts[name].restart()

    def _fail_nic(self, ip, mode: str) -> None:
        from repro.net.nic import NicState

        nic = self.farm.fabric.nics[ip]
        if nic.state is NicState.OK:
            nic.fail(NicState(mode))

    def _repair_nic(self, ip) -> None:
        nic = self.farm.fabric.nics[ip]
        host = self.farm.hosts.get(nic.node_name)
        if host is not None and host.crashed:
            return  # the host's restart repairs its adapters
        nic.repair()

    def _partition_vlan(self, vlan: int, island) -> None:
        seg = self.farm.fabric.segments[vlan]
        if not seg.partitioned:
            seg.partition([list(island)])

    def _heal_vlan(self, vlan: int) -> None:
        seg = self.farm.fabric.segments[vlan]
        if seg.partitioned:
            seg.heal()

    def _set_loss(self, vlan: int, p: float) -> None:
        self.farm.fabric.segments[vlan].quality = LinkQuality(
            loss_probability=p
        )

    def _restore_quality(self, vlan: int) -> None:
        self.farm.fabric.segments[vlan].quality = self._base_quality[vlan]

    def _kill_leader(self, vlan: int, restart_at: float) -> None:
        proto = self.farm.leader_of_vlan(vlan)
        if proto is None:
            return
        name = proto.nic.node_name
        host = self.farm.hosts[name]
        if host.crashed:
            return
        host.crash()
        self.sim.schedule_at(restart_at, self._restart_host, name)

    def _spike_host(self, name: str, spike: float) -> None:
        host = self.farm.hosts[name]
        if host.crashed:
            return
        host.os.stall(self.sim.now + spike)

    def _move_adapter(self, ip, target_vlan: int) -> None:
        try:
            rm = self.farm.reconfig()
        except RuntimeError:
            return  # GSC mid-failover: no console to authorize the move
        nic = self.farm.fabric.nics[ip]
        if nic.port is None or nic.port.vlan == target_vlan:
            return
        rm.move_adapter(ip, target_vlan)

    def _heal_all(self) -> None:
        """Return the fabric to full health, deterministically ordered."""
        for vlan in sorted(self.farm.fabric.segments):
            seg = self.farm.fabric.segments[vlan]
            if seg.partitioned:
                seg.heal()
            if seg.quality is not self._base_quality[vlan]:
                seg.quality = self._base_quality[vlan]
        for name in sorted(self.farm.hosts):
            host = self.farm.hosts[name]
            if host.crashed:
                host.restart()
        from repro.net.nic import NicState

        for name in sorted(self.farm.hosts):
            for nic in self.farm.hosts[name].adapters:
                if nic.state is not NicState.OK:
                    nic.repair()


# ----------------------------------------------------------------------
# one case
# ----------------------------------------------------------------------
def run_chaos_case(
    mix: str,
    case: int = 0,
    farm: str = "oceano55",
    duration: float = 40.0,
    seed: int = 0,
) -> Dict:
    """Run one chaos case and return a plain-JSON result row.

    ``case`` only differentiates the derived task seed when fanned out by
    :func:`run_campaign`; the actual randomness all flows from ``seed``.
    Module-level and picklable so the runner pool can ship it to workers.
    """
    os_params = OSParams.fast()
    f = build_named_farm(
        farm, seed=seed, params=CHAOS_PARAMS, os_params=os_params,
        trace=monitor_trace(),
    )
    windows = CheckWindows.from_params(f.params, os_params)
    monitor = InvariantMonitor(f, windows=windows)
    f.start()
    stable = f.run_until_stable(timeout=180.0)
    row: Dict = {
        "farm": farm,
        "seed": seed,
        "duration": duration,
        "stable_time": round(stable, 6) if stable is not None else None,
    }
    if stable is None:
        row.update(
            checks={}, violations=[{
                "time": round(f.sim.now, 6),
                "invariant": "stabilize",
                "subject": farm,
                "detail": "initial discovery never stabilized",
            }],
            latencies=[], waived=0, waived_by={}, faults={},
        )
        return row
    monitor.start()
    injector = ChaosInjector(f, mix)
    heal_at = injector.plan(start=f.sim.now + 1.0, duration=duration)
    f.sim.run(until=heal_at + windows.settle_time)
    monitor.finalize()
    row.update(monitor.summary())
    row["faults"] = dict(sorted(injector.counts.items()))
    return row


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def run_campaign(
    farm: str = "oceano55",
    mixes: Sequence[str] = ("mixed",),
    seeds: int = 10,
    *,
    jobs: int = 1,
    base_seed: int = 0,
    duration: float = 40.0,
    cache=None,
) -> List[Dict]:
    """Fan chaos cases over seeds × mixes; returns one row per case.

    Rows are byte-identical for any ``jobs`` value: per-case seeds come
    from the runner's deterministic seed derivation and the rows come
    back in grid order.
    """
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r}: choose from {sorted(MIXES)}")
    return run_sweep(
        run_chaos_case,
        grid={"mix": list(mixes), "case": list(range(seeds))},
        fixed={"farm": farm, "duration": duration},
        jobs=jobs,
        experiment="chaos",
        seed_arg="seed",
        base_seed=base_seed,
        cache=cache,
    )


def _percentiles(values: List[float]) -> Dict[str, Optional[float]]:
    """Nearest-rank percentiles, deterministic and numpy-free."""
    out: Dict[str, Optional[float]] = {}
    ordered = sorted(values)
    n = len(ordered)
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        if n == 0:
            out[label] = None
        else:
            idx = min(n - 1, max(0, int(q * n + 0.5) - 1))
            out[label] = round(ordered[idx], 6)
    out["max"] = round(ordered[-1], 6) if n else None
    return out


def build_report(
    rows: List[Dict],
    farm: str,
    mixes: Sequence[str],
    seeds: int,
    base_seed: int = 0,
) -> Dict:
    """Fold case rows into the campaign's machine-readable report."""
    checks: Dict[str, int] = {}
    latencies: List[float] = []
    violations: List[Dict] = []
    faults: Dict[str, int] = {}
    waived = 0
    waived_by: Dict[str, int] = {}
    for row in rows:
        for name, count in (row.get("checks") or {}).items():
            checks[name] = checks.get(name, 0) + count
        latencies.extend(row.get("latencies") or [])
        waived += row.get("waived") or 0
        for reason, count in (row.get("waived_by") or {}).items():
            waived_by[reason] = waived_by.get(reason, 0) + count
        for name, count in (row.get("faults") or {}).items():
            faults[name] = faults.get(name, 0) + count
        for v in row.get("violations") or []:
            violations.append(
                {**v, "mix": row["mix"], "case": row["case"], "seed": row["seed"]}
            )
    violations.sort(key=lambda v: (v["mix"], v["case"], v["time"], v["invariant"]))
    return {
        "campaign": {
            "farm": farm,
            "mixes": list(mixes),
            "seeds": seeds,
            "base_seed": base_seed,
            "cases": len(rows),
        },
        "checks": dict(sorted(checks.items())),
        "faults_injected": dict(sorted(faults.items())),
        "detection_latency": {
            "count": len(latencies),
            **_percentiles(latencies),
        },
        "obligations_waived": waived,
        "obligations_waived_by_reason": dict(sorted(waived_by.items())),
        "violations": violations,
        "ok": not violations,
    }


def write_report(report: Dict, path: str) -> str:
    """Serialize the report canonically (sorted keys, trailing newline):
    identical campaigns produce byte-identical files. Returns ``path``."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def render_report(report: Dict) -> str:
    """Human-readable summary for the CLI."""
    camp = report["campaign"]
    lines = [
        f"chaos campaign: farm={camp['farm']} mixes={','.join(camp['mixes'])} "
        f"seeds={camp['seeds']} cases={camp['cases']}",
        "checks per invariant:",
    ]
    for name, count in report["checks"].items():
        lines.append(f"  {name:<22} {count:>8}")
    lines.append("faults injected:")
    for name, count in report["faults_injected"].items():
        lines.append(f"  {name:<22} {count:>8}")
    lat = report["detection_latency"]
    lines.append(
        "detection latency: "
        f"count={lat['count']} p50={lat['p50']} p90={lat['p90']} "
        f"p99={lat['p99']} max={lat['max']}"
    )
    by_reason = " ".join(
        f"{reason}={count}" for reason, count in report["obligations_waived_by_reason"].items()
    )
    lines.append(
        f"obligations waived: {report['obligations_waived']}"
        + (f" ({by_reason})" if by_reason else "")
    )
    if report["violations"]:
        lines.append(f"VIOLATIONS: {len(report['violations'])}")
        for v in report["violations"]:
            lines.append(
                f"  [{v['mix']}/case{v['case']}/seed{v['seed']}] "
                f"t={v['time']:.2f} {v['invariant']} {v['subject']}: {v['detail']}"
            )
    else:
        lines.append("no invariant violations")
    return "\n".join(lines)
