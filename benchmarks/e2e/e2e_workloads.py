"""One repetition of one workload, run in this process.

``run.py`` starts this file in a fresh child per repetition (in-process
repetition of a cold discovery drifts by 20-35 % as the heap ages) and reads
the one JSON line it prints. Everything here drives the program through its
public entry points and reads its public counters; nothing under ``src/`` is
changed or switched.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import random
import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from e2e_layers import REPO_ROOT, bucket_profile

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import repro.workload.traffic as traffic_plane  # noqa: E402
from repro.checks import (  # noqa: E402
    CHAOS_PARAMS,
    CheckWindows,
    InvariantMonitor,
    build_named_farm,
    monitor_trace,
)
from repro.farm.builder import Farm  # noqa: E402
from repro.gulfstream.adapter_proto import AdapterState  # noqa: E402
from repro.net.nic import NicState  # noqa: E402
from repro.net.segment import Segment  # noqa: E402
from repro.node.faults import FaultPlan  # noqa: E402
from repro.node.osmodel import OSParams  # noqa: E402
from repro.sim.trace import Trace  # noqa: E402

#: the sizes the benchmark runs at (chosen by timing this host, see
#: README.md); the smoke test passes toy sizes instead
SIZES: Dict[str, Dict[str, Any]] = {
    "discovery": {"farm": "oceano256"},
    "steady": {"farm": "oceano256", "windows_n": 4, "window_sim_s": 20.0},
    "faults": {"farm": "oceano128", "n_faults": 100, "n_moves": 8, "span_sim_s": 100.0},
    "traffic": {
        "domains": 4,
        "front_ends": 2,
        "back_ends": 6,
        "spares": 4,
        "duration": 60.0,
        "rate": 600.0,
        "n_users": 1_000_000,
    },
}

#: simulated seconds a scripted fault lasts before its repair
REPAIR_AFTER_SIM_S = 25.0
STABLE_TIMEOUT_SIM_S = 180.0
#: failed operations named in a repetition's record (all of them are counted)
MAX_FAILURES_LISTED = 20
_FAIL_MODES = (NicState.FAIL_FULL, NicState.FAIL_SEND, NicState.FAIL_RECV)


# ----------------------------------------------------------------------
# the measured window
# ----------------------------------------------------------------------
class Windows:
    """Times the measured windows of one repetition, and profiles exactly
    those windows when the repetition is the traced one."""

    def __init__(self, profile: bool = False) -> None:
        self.profiler = cProfile.Profile() if profile else None
        self.wall_s: List[float] = []
        #: epoch seconds at which the first window opened (set-up ends here)
        self.first_opened_at: Optional[float] = None

    @contextmanager
    def measure(self) -> Iterator[None]:
        gc.collect()  # set-up garbage is not the window's cost
        if self.first_opened_at is None:
            self.first_opened_at = time.time()
        if self.profiler is not None:
            self.profiler.enable()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s.append(time.perf_counter() - started)
            if self.profiler is not None:
                self.profiler.disable()


# ----------------------------------------------------------------------
# reading the program's own counters
# ----------------------------------------------------------------------
def raw_counts(registry: Any, trace_counters: Dict[str, int]) -> Dict[str, float]:
    """Registry counters summed over their labels, plus the trace's
    per-category counters under a ``trace:`` prefix."""
    registry.collect()
    raw: Dict[str, float] = {f"trace:{k}": v for k, v in trace_counters.items()}
    for metric in registry:
        if metric.kind == "counter":
            raw[metric.name] = raw.get(metric.name, 0) + metric.value
    return raw


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(
    raw: Dict[str, float], checks: float, waived: float, cross_messages: float = 0
) -> Dict[str, float]:
    """The per-layer counts of one measured window, by their metric names."""

    def get(name: str) -> float:
        return raw.get(name, 0)

    sent, delivered = get("net.segment.frames_sent"), get("net.segment.frames_delivered")
    suspects = get("gs.hb.suspects")
    prepares = get("trace:gs.2pc.prepare")
    return {
        "sim.engine.events": get("sim.events.dispatched"),
        "sim.engine.cancelled": get("sim.events.cancelled"),
        "net.segment.frames_sent": sent,
        "net.segment.frames_delivered": delivered,
        "net.segment.frames_dropped": get("net.segment.frames_dropped"),
        "net.segment.fanout": _ratio(delivered, sent),
        "net.nic.frames_received": get("net.nic.frames_received"),
        "net.nic.recv_drops": get("net.nic.recv_drops"),
        "gulfstream.adapter_proto.beacons_sent": get("gs.beacon.sent"),
        "gulfstream.adapter_proto.views_installed": get("trace:gs.view.install"),
        "gulfstream.heartbeat.sent": get("gs.hb.sent"),
        "gulfstream.heartbeat.suspects": suspects,
        "gulfstream.heartbeat.false_suspect_ratio": _ratio(
            get("gs.hb.false_suspects"), suspects
        ),
        "gulfstream.two_phase.prepares": prepares,
        "gulfstream.two_phase.commit_ratio": _ratio(get("trace:gs.2pc.commit"), prepares),
        "gulfstream.central.reports": get("gsc.reports"),
        "gulfstream.central.report_bytes": get("gsc.report_bytes"),
        "gulfstream.central.member_adds": get("gsc.member_adds"),
        "gulfstream.central.member_removes": get("gsc.member_removes"),
        "checks.invariants.checks": checks,
        "checks.invariants.waived": waived,
        "workload.traffic.requests": get("traffic.requests"),
        "workload.traffic.retried": get("traffic.retried"),
        "workload.autoscaler.moves": get("autoscaler.moves"),
        "sim.shard.cross_messages": cross_messages,
    }


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def farm_digest(farm: Farm) -> str:
    """SHA-256 over every simulated statistic the farm exposes: a change
    that only makes the simulator faster must leave it identical."""
    return _sha256(
        {
            "counters": sorted(farm.sim.trace.counters.items()),
            "history": [
                (n.time, n.kind, n.subject, sorted(n.detail.items()))
                for n in farm.bus.history
            ],
            "segments": {
                str(vlan): (seg.frames_sent, seg.frames_delivered, seg.frames_lost, seg.bytes_sent)
                for vlan, seg in sorted(farm.fabric.segments.items())
            },
        }
    )


# ----------------------------------------------------------------------
# judging what the scripted actions produced
# ----------------------------------------------------------------------
class Injected(NamedTuple):
    """One scripted action and the notification that must follow it."""

    time: float
    notice: str  # notification kind GulfStream Central must publish
    subject: str


def judge_injected(
    injected: Sequence[Injected], history: Sequence[Any]
) -> Tuple[List[float], List[Injected]]:
    """Match every action to the first notification of its kind and subject
    at or after it. Returns the detection latencies of the ``*_failed``
    actions and the actions that were never notified."""
    latencies: List[float] = []
    unnotified: List[Injected] = []
    for action in injected:
        at = next(
            (
                n.time
                for n in history
                if n.kind == action.notice
                and n.subject == action.subject
                and n.time >= action.time
            ),
            None,
        )
        if at is None:
            unnotified.append(action)
        elif action.notice.endswith("_failed"):
            latencies.append(at - action.time)
    return latencies, unnotified


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the campaign report's rule)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


# ----------------------------------------------------------------------
# the farm workloads
# ----------------------------------------------------------------------
def _build(farm: str, seed: int) -> Tuple[Farm, OSParams]:
    os_params = OSParams.fast()
    built = build_named_farm(
        farm, seed=seed, params=CHAOS_PARAMS, os_params=os_params, trace=monitor_trace()
    )
    return built, os_params


def _discover(farm: Farm) -> Optional[float]:
    farm.start()
    return farm.run_until_stable(timeout=STABLE_TIMEOUT_SIM_S)


def _monitor(farm: Farm, os_params: OSParams) -> InvariantMonitor:
    monitor = InvariantMonitor(farm, windows=CheckWindows.from_params(farm.params, os_params))
    monitor.start()
    return monitor


class _FarmWindow:
    """Counter and clock readings at the start of a farm's measured window."""

    def __init__(self, farm: Farm) -> None:
        self.farm = farm
        self.raw = raw_counts(farm.sim.metrics, farm.sim.trace.counters)
        self.now = farm.sim.now
        self.notes = len(farm.bus.history)

    def outcome(
        self,
        stable: Optional[float],
        attempted: int,
        failures: List[str],
        monitor: Optional[InvariantMonitor] = None,
        headline: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """The repetition's record. ``failures`` are failed operations; a
        discovery that never stabilised and every invariant violation are
        also ``problems``, which make the run incorrect."""
        farm = self.farm
        raw = _delta(raw_counts(farm.sim.metrics, farm.sim.trace.counters), self.raw)
        violations = [] if monitor is None else [
            f"violation {v.invariant} {v.subject}: {v.detail}" for v in monitor.violations
        ]
        problems = violations + (["discovery never stabilised"] if stable is None else [])
        return {
            "adapters": len(farm.fabric.nics),
            "sim_seconds": farm.sim.now - self.now,
            "stable_time_sim_s": stable,
            "attempted": attempted,
            "failed": len(failures) + len(violations),
            "failures": (failures + violations)[:MAX_FAILURES_LISTED],
            "problems": problems,
            "counts": layer_counts(
                raw,
                checks=0 if monitor is None else sum(monitor.checks.values()),
                waived=0 if monitor is None else monitor.waived,
            ),
            "headline": headline or {},
            "sim_digest": farm_digest(farm),
        }


def discovery(seed: int, windows: Windows, farm: str) -> Dict[str, Any]:
    """Cold start until GulfStream Central declares the topology stable."""
    built, _ = _build(farm, seed)
    window = _FarmWindow(built)
    with windows.measure():
        stable = _discover(built)
    adapters = len(built.fabric.nics)
    gsc = built.gsc()
    if stable is None or gsc is None:
        return window.outcome(None, adapters, [f"undiscovered {ip}" for ip in built.fabric.nics])
    failures = [
        f"absent from GSC's table: {ip}"
        for ip in built.fabric.nics
        if gsc.adapter_status(ip) is not True
    ]
    failures += [f"{i.kind} {i.ip}: {i.detail}" for i in gsc.verify_topology()]
    return window.outcome(stable, adapters, failures)


def steady(
    seed: int, windows: Windows, farm: str, windows_n: int, window_sim_s: float
) -> Dict[str, Any]:
    """Fault-free windows on a discovered farm with the monitor sweeping."""
    built, os_params = _build(farm, seed)
    stable = _discover(built)
    monitor = _monitor(built, os_params)
    window = _FarmWindow(built)
    for _ in range(windows_n):
        with windows.measure():
            built.sim.run(until=built.sim.now + window_sim_s)
    monitor.finalize()
    alarms = [
        f"false alarm {n.kind} {n.subject}"
        for n in built.bus.history[window.notes :]
        if n.kind.endswith("_failed")
    ]
    return window.outcome(stable, sum(monitor.checks.values()), alarms, monitor=monitor)


def fault_script(
    farm: Farm, seed: int, start: float, n_faults: int, n_moves: int, span_sim_s: float
) -> Tuple[FaultPlan, List[Tuple[float, Any, int]], List[Injected]]:
    """The scripted burst: ``n_faults`` faults spread evenly over the span on
    a seed-shuffled list of domain servers (even index: crash the node; odd
    index: fail its first data adapter, cycling the three failure modes),
    each repaired ``REPAIR_AFTER_SIM_S`` later, plus ``n_moves`` live moves of
    spare nodes' data adapters into domains.

    Nodes that lead an AMG when the script is written are spared: at this
    commit a crashed leader can leave its group's failures unreported for
    tens of simulated seconds (seed 4: 15 of 120 actions), so the burst
    would fail operations on a correct program. Leader kills are the chaos
    campaign's ``leader`` mix.
    """
    leaders = {
        name
        for name, daemon in farm.daemons.items()
        for proto in daemon.protocols.values()
        if proto.state is AdapterState.LEADER
    }
    servers = sorted(
        node for nodes in farm.domain_nodes.values() for node in nodes if node not in leaders
    )
    random.Random(seed).shuffle(servers)
    if n_faults > len(servers):
        raise ValueError(f"{n_faults} faults need as many servers, farm has {len(servers)}")
    plan = FaultPlan()
    injected: List[Injected] = []
    for i in range(n_faults):
        at = start + i * span_sim_s / n_faults
        node = servers[i]
        if i % 2 == 0:
            plan.crash_node(at, node).restart_node(at + REPAIR_AFTER_SIM_S, node)
            injected.append(Injected(at, "node_failed", node))
            injected.append(Injected(at + REPAIR_AFTER_SIM_S, "node_recovered", node))
        else:
            ip = str(farm.hosts[node].adapters[1].ip)
            plan.fail_adapter(at, ip, _FAIL_MODES[(i // 2) % len(_FAIL_MODES)])
            plan.repair_adapter(at + REPAIR_AFTER_SIM_S, ip)
            injected.append(Injected(at, "adapter_failed", ip))
            injected.append(Injected(at + REPAIR_AFTER_SIM_S, "adapter_recovered", ip))
    vlans = sorted(farm.domain_vlans.values())
    move_plan: List[Tuple[float, Any, int]] = []
    for j in range(n_moves):
        at = start + (j + 0.5) * span_sim_s / n_moves
        ip = farm.hosts[farm.spare_nodes[j % len(farm.spare_nodes)]].adapters[1].ip
        move_plan.append((at, ip, vlans[j % len(vlans)]))
        injected.append(Injected(at, "move_completed", str(ip)))
    return plan, move_plan, injected


def faults(
    seed: int, windows: Windows, farm: str, n_faults: int, n_moves: int, span_sim_s: float
) -> Dict[str, Any]:
    """A scripted burst of crashes, adapter failures and live moves."""
    built, os_params = _build(farm, seed)
    stable = _discover(built)
    monitor = _monitor(built, os_params)
    start = built.sim.now + 1.0
    plan, move_plan, injected = fault_script(built, seed, start, n_faults, n_moves, span_sim_s)
    plan.arm(built.sim, built.fabric, built.hosts)
    for at, ip, vlan in move_plan:
        built.sim.schedule_at(at, lambda ip=ip, vlan=vlan: built.reconfig().move_adapter(ip, vlan))
    window = _FarmWindow(built)
    with windows.measure():
        built.sim.run(until=start + span_sim_s + REPAIR_AFTER_SIM_S + monitor.windows.settle_time)
        monitor.finalize()
    latencies, unnotified = judge_injected(injected, built.bus.history)
    return window.outcome(
        stable,
        len(injected),
        [f"never notified: {a.notice} {a.subject} (t={a.time:.2f})" for a in unnotified],
        monitor=monitor,
        headline={
            "detect_p50_sim_s": percentile(latencies, 0.50),
            "detect_p90_sim_s": percentile(latencies, 0.90),
        },
    )


# ----------------------------------------------------------------------
# the traffic workload
# ----------------------------------------------------------------------
def traffic(seed: int, windows: Windows, **case: Any) -> Dict[str, Any]:
    """One open-loop traffic case with autoscaler moves, no injected faults
    (the ``faults`` workload has those; with a chaos mix requests fail by
    design and p99 flips between 50 ms and the 3 s retry ceiling by seed).

    The farm build is inside the window because users pay it per case. The
    request generator runs on the simulated clock, so it is never late.
    """
    captured: List[Any] = []
    run_sharded = traffic_plane.run_sharded

    def capturing(*args: Any, **kwargs: Any) -> Any:
        captured.append(run_sharded(*args, **kwargs))
        return captured[-1]

    # run_traffic_case returns only its row; the shard runner's result also
    # carries the merged registry and trace counters the layer counts need
    traffic_plane.run_sharded = capturing
    try:
        with windows.measure():
            row = traffic_plane.run_traffic_case(seed=seed, mix=None, shards=1, **case)
    finally:
        traffic_plane.run_sharded = run_sharded
    res = captured[0]
    recon = traffic_plane.build_traffic_farm(seed=seed, trace=Trace(store=False), **case)
    requests = row["requests"]
    problems = [f"violation {v['invariant']} {v['subject']}: {v['detail']}" for v in row["violations"]]
    if requests["completed"] + requests["failed"] != requests["issued"]:
        problems.append(f"requests unaccounted for: {requests}")
    if row["stable_time"] is None:
        problems.append("discovery never stabilised")
    return {
        "adapters": len(recon.fabric.nics),
        "sim_seconds": res.duration,
        "stable_time_sim_s": row["stable_time"],
        "attempted": requests["issued"],
        "failed": requests["failed"] + len(row["violations"]),
        "failures": problems[:MAX_FAILURES_LISTED],
        "problems": problems,
        "counts": layer_counts(
            raw_counts(res.metrics, res.counters),
            checks=sum(row["checks"].values()),
            waived=row["waived"],
            cross_messages=res.cross_messages,
        ),
        "headline": {
            "availability": row["availability"],
            "req_p99_sim_ms": row["latency"]["p99"] * 1000.0,
            "moves_per_sim_hour": row["moves_per_hour"],
        },
        "sim_digest": _sha256(row),
    }


WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "discovery": discovery,
    "steady": steady,
    "faults": faults,
    "traffic": traffic,
}


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def handicap_transmit(micros: float) -> None:
    """Busy-wait ``micros`` µs in front of every ``Segment.transmit`` — the
    seeded slowdown of README.md's sensitivity check, never on otherwise."""
    transmit = Segment.transmit

    def slowed(self: Segment, sender: Any, frame: Any) -> bool:
        until = time.perf_counter() + micros * 1e-6
        while time.perf_counter() < until:
            pass
        return transmit(self, sender, frame)

    Segment.transmit = slowed  # type: ignore[method-assign]


def run_rep(
    workload: str,
    seed: int,
    profile: bool = False,
    spawned_at: Optional[float] = None,
    sizes: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one repetition and return its plain-JSON record."""
    if spawned_at is None:
        spawned_at = time.time()
    windows = Windows(profile)
    rep = WORKLOADS[workload](seed, windows, **(SIZES[workload] if sizes is None else sizes))
    assert windows.first_opened_at is not None
    rep.update(
        workload=workload,
        seed=seed,
        setup_s=windows.first_opened_at - spawned_at,
        wall_s=windows.wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if windows.profiler is not None:
        rep["profile"] = bucket_profile(pstats.Stats(windows.profiler))
    return rep


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--handicap-us", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.handicap_us > 0:
        handicap_transmit(args.handicap_us)
    rep = run_rep(args.workload, args.seed, bool(args.profile), args.spawned_at)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
