"""SCALE-GSC-HIER — the §4.2 multi-level hierarchy extension, measured.

Paper: "In the current prototype, there are only two levels. However, this
hierarchy could be extended." and "[GulfStream Central's] function can be
distributed. While this would ameliorate the problem of heavy
infrastructure management traffic directed to and from a single node ...
At present a wait and see attitude is being pursued."

We run the experiment the authors deferred: the same farm with the flat
two-level hierarchy vs with per-zone report aggregators, under sustained
node churn. Metric: frames carrying report traffic that arrive at the GSC
node (its "heavy infrastructure management traffic"), with the logical
report count held identical — batching trades a flush-interval of latency
for central-node pressure.
"""

from repro.analysis import format_table
from repro.farm import build_zoned_farm
from repro.gulfstream.params import GSParams
from repro.node.faults import FaultInjector
from repro.node.osmodel import OSParams

from _common import bench_jobs, emit, once, run_sweep

PARAMS = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                  hb_interval=0.5, probe_timeout=0.5, orphan_timeout=3.0,
                  takeover_stagger=0.5)


def churn_run(n_zones: int, use_zones: bool, seed: int) -> dict:
    farm = build_zoned_farm(
        n_zones, nodes_per_zone=5, vlans_per_zone=3, seed=seed,
        params=PARAMS, os_params=OSParams.fast(), use_zones=use_zones,
        flush_interval=1.0,
    )
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    gsc_daemon = next(d for d in farm.daemons.values() if d.is_gsc)
    gsc = farm.gsc()
    f0 = gsc_daemon.report_frames_in
    r0 = gsc.reports_received
    # churn the zone servers (not the management nodes, so GSC stays put
    # and the frame counter keeps meaning the same node)
    servers = {k: h for k, h in farm.hosts.items() if k.startswith("z")}
    inj = FaultInjector(farm.sim, servers, mtbf=100.0, mttr=12.0)
    t0 = farm.sim.now
    inj.start()
    farm.sim.run(until=t0 + 180.0)
    inj.stop()
    return {
        "zones": n_zones,
        "hierarchy": "3-level (aggregators)" if use_zones else "2-level (flat)",
        "churn_events": inj.crashes + inj.repairs,
        "gsc_report_frames": gsc_daemon.report_frames_in - f0,
        "logical_reports": gsc.reports_received - r0,
        "fallbacks": farm.sim.trace.count("gs.zone.fallback"),
    }


def comparison_point(n_zones: int, use_zones: bool) -> dict:
    # flat and zoned runs share seed=500+n_zones on purpose: identical
    # churn makes the frame counts directly comparable
    return churn_run(n_zones, use_zones, seed=500 + n_zones)


def run_comparison():
    return run_sweep(
        comparison_point,
        {"n_zones": (3, 6), "use_zones": (False, True)},
        jobs=bench_jobs(),
    )


def test_hierarchy_reduces_central_pressure(benchmark):
    rows = once(benchmark, run_comparison)
    table = format_table(
        rows,
        columns=["zones", "hierarchy", "churn_events", "gsc_report_frames",
                 "logical_reports", "fallbacks"],
        title=(
            "The §4.2 extended hierarchy under 180 s of node churn\n"
            "zone aggregators batch reports: same logical information, "
            "fewer frames at the central node"
        ),
    )
    emit("hierarchy", table)
    for n_zones in (3, 6):
        flat = next(r for r in rows if r["zones"] == n_zones
                    and r["hierarchy"].startswith("2"))
        zoned = next(r for r in rows if r["zones"] == n_zones
                     and r["hierarchy"].startswith("3"))
        # identical churn (same seed): the information content matches...
        assert zoned["churn_events"] == flat["churn_events"]
        # ...but the zoned farm delivers it in fewer frames at GSC
        assert zoned["gsc_report_frames"] < flat["gsc_report_frames"]
        # and no logical report went missing (same order of magnitude;
        # small differences come from coalescing windows)
        assert zoned["logical_reports"] >= 0.7 * flat["logical_reports"]
