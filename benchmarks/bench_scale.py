"""Farm-scale event throughput: the timer wheel + batched delivery at work.

ROADMAP item 1 targets 1k–10k adapters, two orders of magnitude past the
paper's 55-node testbed. This bench drives the *substrate* at that scale
with the protocols' two dominant traffic shapes — per-adapter ring
heartbeats (two prebuilt unicast frames, via ``send_frames``) and
per-adapter segment beacons (multicast to every segment member, the §2.1
discovery shape) — over
256 / 1024 / 4096 adapters, and records:

* ``events_per_sec_<n>``   — engine events dispatched per wall second;
* ``delivery_rate_<n>``    — *useful work* (timer fires + frame
  deliveries) per wall second, the number that must not degrade as the
  farm grows: batching makes it deliberately larger than events/s;
* ``us_per_delivery_<n>``  — inverse of the above; "flat per-event cost
  from 256 → 4096" means this column stays level;
* ``peak_rss_mb_<n>``      — process peak RSS after the run at each size
  (sizes run ascending; ru_maxrss is monotone per process, so each
  value is an upper bound attributable to its size);
* ``scale_speedup``        — delivery rate of the default configuration
  (wheel backend + batched delivery) over the pre-PR configuration
  (heap backend, per-receiver delivery events) at the largest size;
* ``sharded_delivery_rate_<n>`` / ``sharded_peak_rss_mb_<n>`` — the same
  substrate split across ``shards`` worker processes at segment
  granularity (:mod:`repro.sim.shard.bench`); RSS is the sum of the
  children's peaks plus the parent's. The sharded run must perform
  *exactly* the same useful work as the single-process run (the
  segments are disjoint and loss-free) — asserted on every run,
  including the partial CI one;
* ``shard_speedup``        — sharded over single-process delivery rate at
  the largest size, with ``cpus`` recorded so the regression gate can
  skip it on hosts without real parallel silicon (a 1-core runner
  measures ~1x by construction).

``BENCH_SCALE_SIZES`` (comma-separated) overrides the size list — CI runs
the 256-point only, printing + floor-asserting without appending to the
``BENCH_scale.json`` trajectory (a partial point's keys would trip the
metric-drift guard, by design). Under pytest the acceptance is asserted in
its deterministic form (engine events per useful delivery, exact counts);
the wall-clock ratios are asserted only where they are recorded. No
trajectory point is recorded under pytest either: ``ru_maxrss`` is
process-wide, so a point taken mid-suite would carry the whole test
session's high-water mark, not this bench's footprint. Appending a point
requires the dedicated-process entry
(``PYTHONPATH=src python benchmarks/bench_scale.py``).
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from _common import emit, emit_bench_json

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.nic import NIC
from repro.net.packet import Frame
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.trace import Trace

pytestmark = pytest.mark.slow

#: adapters per broadcast segment (the paper's VLAN-sized domains)
SEGMENT_SIZE = 256
#: heartbeat interval (s); each adapter unicasts both ring neighbours
HB_INTERVAL = 0.5
#: beacon interval (s); each adapter multicasts its whole segment
BEACON_INTERVAL = 5.0
#: distinct timer phases per interval — adapters sharing a phase tick at
#: the same instant, so their deliveries coalesce into per-segment batches
PHASES = 64

DEFAULT_SIZES = (256, 1024, 4096)

#: worker processes for the sharded points (and the recorded ``shards`` key)
SHARD_COUNT = 4
#: sizes the sharded configuration is measured at (full runs only)
SHARD_SIZES = (1024, 4096)
#: minimum sharded-over-single speedup at the largest size — asserted only
#: with >= 4 cores; recorded (not asserted) elsewhere
SHARD_SPEEDUP_FLOOR = 1.8

#: True only in the ``__main__`` dedicated-process entry; see module
#: docstring — pytest-session points would record the suite's RSS peak
_RECORD = False


def _sizes() -> tuple:
    env = os.environ.get("BENCH_SCALE_SIZES", "").strip()
    if not env:
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in env.split(",") if tok.strip())


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _build(n_adapters: int, backend: str, batched: bool) -> tuple:
    """A fabric of ``n_adapters`` across SEGMENT_SIZE-member VLANs, each
    adapter running the heartbeat + beacon timer shape."""
    sim = Simulator(seed=7, trace=Trace(store=False), backend=backend)
    fabric = Fabric(sim)  # PerfectLink: fixed latency, the batching shape
    nsegs = (n_adapters + SEGMENT_SIZE - 1) // SEGMENT_SIZE
    received = [0]

    def on_frame(frame) -> None:
        received[0] += 1

    segments = []
    for s in range(nsegs):
        members = []
        base = s * SEGMENT_SIZE
        count = min(SEGMENT_SIZE, n_adapters - base)
        for j in range(count):
            i = base + j
            nic = NIC(IPAddress(0x0A000000 + i + 1), f"node-{i}", 0)
            nic.handler = on_frame
            fabric.attach(nic, f"sw-{s}", vlan=s)
            members.append(nic)
        seg = fabric.segments[s]
        seg.batch_delivery = batched
        segments.append((seg, members))

    timers = []
    for seg, members in segments:
        m = len(members)
        for j, nic in enumerate(members):
            left = members[(j - 1) % m]
            right = members[(j + 1) % m]
            phase = (j % PHASES) / PHASES
            timers.append(Timer(
                sim, HB_INTERVAL, nic.send_frames,
                (Frame(nic.ip, left.ip, "hb", 64), Frame(nic.ip, right.ip, "hb", 64)),
                initial_delay=phase * HB_INTERVAL,
            ))
            timers.append(Timer(
                sim, BEACON_INTERVAL, nic.multicast, "beacon", 128,
                initial_delay=phase * BEACON_INTERVAL,
            ))
    return sim, fabric, received, timers


def _run_one(n_adapters: int, backend: str, batched: bool, duration: float) -> dict:
    sim, fabric, received, timers = _build(n_adapters, backend, batched)
    t0 = time.perf_counter()
    sim.run(until=duration)
    # stop the sources and drain the in-flight delivery tail, so the
    # delivered/received accounting below is exact
    for t in timers:
        t.cancel()
    sim.run()
    wall = time.perf_counter() - t0
    deliveries = sum(seg.frames_delivered for seg in fabric.segments.values())
    assert deliveries == received[0], "every delivered frame reaches a handler"
    # useful work = protocol-level happenings (timer ticks + frames landing
    # at receivers); engine events dispatched is the cost side — batching
    # deliberately drives it *below* the useful rate
    useful = deliveries + sum(t.fires for t in timers)
    return {
        "events_per_sec": round(sim.events_executed / wall),
        "delivery_rate": round(useful / wall),
        "us_per_delivery": round(wall / useful * 1e6, 3),
        "events_executed": sim.events_executed,
        "deliveries": deliveries,
        "useful": useful,
        "wall_s": round(wall, 3),
    }


def _run_sharded(n_adapters: int, shards: int, duration: float, single_useful: int) -> dict:
    """The sharded substrate at ``n_adapters``; asserts exact useful-work
    equivalence against the single-process run of the same size."""
    from repro.sim.shard.bench import run_sharded_substrate

    r = run_sharded_substrate(
        n_adapters, shards, duration,
        segment_size=SEGMENT_SIZE, hb_interval=HB_INTERVAL,
        beacon_interval=BEACON_INTERVAL, phases=PHASES,
    )
    assert r["deliveries"] == r["received"], "every delivered frame reaches a handler"
    assert r["useful"] == single_useful, (
        f"sharded run did different work: {r['useful']} useful vs "
        f"{single_useful} single-process (disjoint loss-free segments "
        "must be layout-invariant)"
    )
    rss_mb = round(r["child_peak_rss_kb"] / 1024.0 + _peak_rss_mb(), 1)
    return {
        "delivery_rate": round(r["useful"] / r["wall_s"]),
        "peak_rss_mb": rss_mb,
        "workers": r["workers"],
        "wall_s": round(r["wall_s"], 3),
    }


def _duration(n: int) -> float:
    # shorter simulated horizon at the biggest size keeps the suite under a
    # couple of minutes; rates are per-wall-second, so the horizon does not
    # bias the comparison (both configurations of a size share it)
    return 10.0 if n <= 1024 else 5.0


def run_scale_bench(sizes=None) -> tuple:
    sizes = tuple(sizes) if sizes is not None else _sizes()
    metrics: dict = {}
    rows = []
    for n in sorted(sizes):
        point = _run_one(n, backend="wheel", batched=True, duration=_duration(n))
        metrics[f"events_per_sec_{n}"] = point["events_per_sec"]
        metrics[f"delivery_rate_{n}"] = point["delivery_rate"]
        metrics[f"us_per_delivery_{n}"] = point["us_per_delivery"]
        metrics[f"peak_rss_mb_{n}"] = _peak_rss_mb()
        rows.append((n, point))
    largest = max(sizes)
    baseline = _run_one(largest, backend="heap", batched=False, duration=_duration(largest))
    metrics[f"baseline_delivery_rate_{largest}"] = baseline["delivery_rate"]
    metrics["scale_speedup"] = round(
        metrics[f"delivery_rate_{largest}"] / baseline["delivery_rate"], 2
    )
    # sharded configuration (full default-size runs only, so the partial CI
    # size list keeps its reduced metric-key set out of the trajectory)
    if tuple(sorted(sizes)) == DEFAULT_SIZES:
        singles = dict(rows)
        metrics["cpus"] = os.cpu_count() or 1
        metrics["shards"] = SHARD_COUNT
        for n in SHARD_SIZES:
            sh = _run_sharded(n, SHARD_COUNT, _duration(n), singles[n]["useful"])
            metrics[f"sharded_delivery_rate_{n}"] = sh["delivery_rate"]
            metrics[f"sharded_peak_rss_mb_{n}"] = sh["peak_rss_mb"]
        metrics["shard_speedup"] = round(
            metrics[f"sharded_delivery_rate_{largest}"]
            / metrics[f"delivery_rate_{largest}"], 2
        )
    return metrics, rows, largest, baseline


def test_scale_bench_trajectory():
    sizes = _sizes()
    metrics, rows, largest, baseline = run_scale_bench(sizes)
    lines = ["farm-scale throughput (wheel + batched delivery)",
             "------------------------------------------------",
             f"{'adapters':>9} {'events/s':>12} {'useful/s':>12} "
             f"{'us/delivery':>12} {'peakRSS MB':>11}"]
    for n, p in rows:
        lines.append(
            f"{n:>9} {p['events_per_sec']:>12,} {p['delivery_rate']:>12,} "
            f"{p['us_per_delivery']:>12} {metrics[f'peak_rss_mb_{n}']:>11}"
        )
    lines.append(
        f"baseline (heap, unbatched) @ {largest}: "
        f"{baseline['delivery_rate']:,} useful/s -> speedup {metrics['scale_speedup']}x"
    )
    if "shard_speedup" in metrics:
        for n in SHARD_SIZES:
            lines.append(
                f"sharded ({SHARD_COUNT} workers) @ {n}: "
                f"{metrics[f'sharded_delivery_rate_{n}']:,} useful/s, "
                f"peak RSS {metrics[f'sharded_peak_rss_mb_{n}']} MB (children+parent)"
            )
        lines.append(
            f"shard speedup @ {largest}: {metrics['shard_speedup']}x "
            f"on {metrics['cpus']} cpu(s)"
        )
    emit("scale", "\n".join(lines))
    # the trajectory file only records full default-size runs: a partial
    # (CI) size list would change the metric-key set and trip the
    # emit_bench_json drift guard — correctly, since mixed-shape points
    # are not comparable
    if tuple(sorted(sizes)) == DEFAULT_SIZES:
        # tentpole acceptance, deterministic form (exact counts, asserted on
        # every run): the engine-event cost of a useful delivery is level
        # from 256 -> 4096 adapters, and >= 3x below the pre-PR
        # configuration's at the 4096-adapter point
        per_useful = {n: p["events_executed"] / p["useful"] for n, p in rows}
        assert per_useful[largest] <= per_useful[min(sizes)]
        assert baseline["events_executed"] / baseline["useful"] >= 3.0 * per_useful[largest]
        if _RECORD:
            emit_bench_json("scale", metrics)
            # the wall-clock forms of the same acceptance (allow 2x for
            # cache effects at 16x scale). Ratios of two timings on a host
            # whose run-to-run spread is 7-11 %: asserted only in the
            # dedicated-process run that records them, never mid-suite
            assert metrics["scale_speedup"] >= 3.0
            assert metrics["us_per_delivery_4096"] < 2.0 * metrics["us_per_delivery_256"]
            # sharded acceptance: >= 1.8x at the largest size — only where
            # parallel speedup is physically possible; 1-2 core hosts record
            # the (honest, ~1x) number without gating on it
            if metrics["cpus"] >= 4:
                assert metrics["shard_speedup"] >= SHARD_SPEEDUP_FLOOR
    else:
        smallest = min(sizes)
        # CI floor at the 256-point: generous (~3x slack) anti-regression
        # guards; the full-size acceptance runs with the default size list
        assert metrics[f"delivery_rate_{smallest}"] > 100_000
        assert metrics["scale_speedup"] >= 1.5
        # 2-shard equivalence smoke: two segments on one spawned worker
        # and across two — the useful-work counts must be identical. No
        # speedup assert here; CI runners may have one core.
        from repro.sim.shard.bench import run_sharded_substrate

        smoke_kw = dict(segment_size=SEGMENT_SIZE, hb_interval=HB_INTERVAL,
                        beacon_interval=BEACON_INTERVAL, phases=PHASES)
        single = run_sharded_substrate(2 * SEGMENT_SIZE, 1, 2.0, **smoke_kw)
        pooled = run_sharded_substrate(2 * SEGMENT_SIZE, 2, 2.0, **smoke_kw)
        assert single["workers"] == 1 and pooled["workers"] == 2
        assert pooled["useful"] == single["useful"], (
            f"2-shard pool did different work: {pooled['useful']} vs "
            f"{single['useful']} on one worker"
        )
        assert pooled["deliveries"] == single["deliveries"]
        assert pooled["events_executed"] == single["events_executed"]

if __name__ == "__main__":
    _RECORD = True
    test_scale_bench_trajectory()
