"""Sharded variant of the farm-scale throughput substrate.

``benchmarks/bench_scale.py`` drives the substrate (per-adapter ring
heartbeats + segment beacons over SEGMENT_SIZE-member VLANs) in one
process. This module holds the same workload in spawn-importable form —
the ``benchmarks/`` directory is not a package, so worker processes
cannot unpickle factories defined there — and adds the sharded driver:
segments are dealt round-robin across workers, each worker runs its
slice on its own :class:`~repro.sim.engine.Simulator`, and the parent
steps them in lockstep epochs via
:class:`~repro.runner.pool.PersistentWorkerPool`.

The substrate's segments are fully disjoint (no cross-segment traffic),
so the sharded run is embarrassingly parallel — no cut channel, and a
large epoch (``DEFAULT_EPOCH``) since no lookahead constraint applies.
Because the per-segment programs are identical and loss-free with fixed
latency, the union of the sharded runs performs *exactly* the same
useful work (timer fires + frame deliveries) as the single-process run —
an equality the bench asserts as its cheap equivalence check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.runner.pool import PersistentWorkerPool
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.trace import Trace

__all__ = ["SubstrateSpec", "SubstrateIsland", "build_substrate", "run_sharded_substrate"]

#: epoch length (simulated s) for the sharded substrate; the segments
#: exchange nothing, so the barrier only paces progress reporting
DEFAULT_EPOCH = 1.0


@dataclass(frozen=True)
class SubstrateSpec:
    """One worker's slice of the substrate workload. Picklable."""

    segment_ids: Tuple[int, ...]
    n_adapters: int
    segment_size: int
    hb_interval: float
    beacon_interval: float
    phases: int
    backend: str
    seed: int


def build_substrate(spec: SubstrateSpec) -> Tuple[Simulator, Fabric, List[int], List[Timer]]:
    """Build the segments in ``spec.segment_ids`` with the bench's exact
    per-adapter timer shape (ring heartbeats via ``send_frames`` + segment
    beacons via ``multicast``)."""
    sim = Simulator(seed=spec.seed, trace=Trace(store=False), backend=spec.backend)
    fabric = Fabric(sim)  # PerfectLink: fixed latency, the batching shape
    received = [0]

    def on_frame(frame: Any) -> None:
        received[0] += 1

    timers: List[Timer] = []
    for s in spec.segment_ids:
        base = s * spec.segment_size
        count = min(spec.segment_size, spec.n_adapters - base)
        members = []
        for j in range(count):
            i = base + j
            nic = NIC(IPAddress(0x0A000000 + i + 1), f"node-{i}", 0)
            nic.handler = on_frame
            fabric.attach(nic, f"sw-{s}", vlan=s)
            members.append(nic)
        fabric.segments[s].batch_delivery = True
        m = len(members)
        for j, nic in enumerate(members):
            left = members[(j - 1) % m]
            right = members[(j + 1) % m]
            phase = (j % spec.phases) / spec.phases
            timers.append(Timer(
                sim, spec.hb_interval, nic.send_frames,
                (Frame(nic.ip, left.ip, "hb", 64), Frame(nic.ip, right.ip, "hb", 64)),
                initial_delay=phase * spec.hb_interval,
            ))
            timers.append(Timer(
                sim, spec.beacon_interval, nic.multicast, "beacon", 128,
                initial_delay=phase * spec.beacon_interval,
            ))
    return sim, fabric, received, timers


class SubstrateIsland:
    """PersistentWorkerPool state: one worker's substrate slice."""

    def __init__(self, spec: SubstrateSpec) -> None:
        self.sim, self.fabric, self.received, self.timers = build_substrate(spec)

    def step(self, payload: Dict[str, float]) -> None:
        self.sim.run(until=payload["until"])
        return None

    def finish(self, _payload: Any) -> Dict[str, int]:
        # stop the sources and drain the in-flight delivery tail, exactly
        # as the single-process bench does, so accounting is exact
        for timer in self.timers:
            timer.cancel()
        self.sim.run()
        deliveries = sum(seg.frames_delivered for seg in self.fabric.segments.values())
        return {
            "events_executed": self.sim.events_executed,
            "deliveries": deliveries,
            "received": self.received[0],
            "useful": deliveries + sum(t.fires for t in self.timers),
        }


def _make_island(spec: SubstrateSpec) -> SubstrateIsland:
    return SubstrateIsland(spec)


def run_sharded_substrate(
    n_adapters: int,
    shards: int,
    duration: float,
    *,
    backend: str = "wheel",
    segment_size: int = 256,
    hb_interval: float = 0.5,
    beacon_interval: float = 5.0,
    phases: int = 64,
    seed: int = 7,
    epoch: float = DEFAULT_EPOCH,
) -> Dict[str, Any]:
    """Run the substrate sharded over ``shards`` worker processes.

    Returns aggregate counts plus ``wall_s`` (stepping + drain, measured
    after every worker finished building — steady-state throughput, the
    same thing the single-process bench times) and the summed peak RSS
    of the worker children (``child_peak_rss_kb``).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    nsegs = (n_adapters + segment_size - 1) // segment_size
    groups = [
        tuple(s for s in range(nsegs) if s % shards == w)
        for w in range(shards)
    ]
    groups = [g for g in groups if g]
    specs = [
        SubstrateSpec(
            segment_ids=group,
            n_adapters=n_adapters,
            segment_size=segment_size,
            hb_interval=hb_interval,
            beacon_interval=beacon_interval,
            phases=phases,
            backend=backend,
            seed=seed,
        )
        for group in groups
    ]
    pool = PersistentWorkerPool(_make_island, specs)
    try:
        t0 = time.perf_counter()
        now = 0.0
        while now < duration:
            now = min(now + epoch, duration)
            pool.call_all("step", [{"until": now}] * len(specs))
        finals = pool.call_all("finish", [None] * len(specs))
        wall = time.perf_counter() - t0
        stats = pool.stop()
    finally:
        pool.terminate()
    return {
        "wall_s": wall,
        "events_executed": sum(f["events_executed"] for f in finals),
        "deliveries": sum(f["deliveries"] for f in finals),
        "received": sum(f["received"] for f in finals),
        "useful": sum(f["useful"] for f in finals),
        "child_peak_rss_kb": sum(s["peak_rss_kb"] for s in stats if s),
        "workers": len(specs),
    }
