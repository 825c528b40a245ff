"""FIG5 — Figure 5: time for all groups to become stable.

Paper: three experiments with T_beacon ∈ {5, 10, 20} s (T_amg = 5 s,
T_gsc = 15 s), testbed of up to 55 nodes with three adapters each (x-axis:
total adapters, 6..165). Findings: the time is **constant in group size**
at ``T_beacon + T_amg + T_gsc + δ`` with δ between 5 and 6 seconds.

We regenerate the same series (plus the T_beacon = 0 ablation §2.1 argues
about) on the simulated testbed. Expected shape: flat rows per T_beacon,
spaced by the T_beacon difference, δ ∈ [5, 6].
"""

from repro.analysis import format_table, measure_stability

from _common import bench_jobs, emit, once, run_sweep

NODE_COUNTS = (2, 10, 25, 40, 55)
BEACON_TIMES = (5.0, 10.0, 20.0)


def fig5_point(T_beacon: float, nodes: int) -> dict:
    # seed choice predates the runner's task-hash seeding and is kept so
    # the published table stays byte-identical
    r = measure_stability(nodes, beacon_duration=T_beacon, seed=1000 + nodes)
    return {
        "adapters": r.n_adapters,
        "stable_time_s": r.stable_time,
        "configured_s": r.configured,
        "delta_s": r.delta,
        "complete": r.adapters_discovered == r.n_adapters,
    }


def run_fig5():
    return run_sweep(
        fig5_point,
        {"T_beacon": BEACON_TIMES, "nodes": NODE_COUNTS},
        jobs=bench_jobs(),
    )


def test_fig5_stability(benchmark):
    rows = once(benchmark, run_fig5)
    table = format_table(
        rows,
        columns=["T_beacon", "nodes", "adapters", "stable_time_s", "configured_s",
                 "delta_s", "complete"],
        title=(
            "Figure 5 — time for all groups to become stable (s)\n"
            "paper: flat in adapter count; delta in [5, 6] s"
        ),
    )
    emit("fig5_stability", table)
    # the paper's two claims, asserted:
    for tb in BEACON_TIMES:
        series = [r for r in rows if r["T_beacon"] == tb]
        times = [r["stable_time_s"] for r in series]
        assert max(times) - min(times) < 2.5, f"not flat for T_beacon={tb}: {times}"
        assert all(4.0 < r["delta_s"] < 7.0 for r in series), series
        assert all(r["complete"] for r in series)
    # curves are spaced by the beacon-duration difference
    t5 = [r["stable_time_s"] for r in rows if r["T_beacon"] == 5.0]
    t20 = [r["stable_time_s"] for r in rows if r["T_beacon"] == 20.0]
    avg_gap = sum(t20) / len(t20) - sum(t5) / len(t5)
    assert 13.0 < avg_gap < 17.0


def test_fig5_zero_beacon_ablation(benchmark):
    """§2.1: a zero beacon phase converges by merge storm — correct but
    costlier. We count the membership commits to quantify 'costlier'."""
    from repro.farm.builder import build_testbed
    from repro.gulfstream.params import GSParams
    from repro.node.osmodel import OSParams

    def run():
        rows = []
        for tb in (0.0, 5.0):
            params = GSParams(beacon_duration=tb)
            farm = build_testbed(15, seed=77, params=params,
                                 os_params=OSParams.ideal())
            farm.start()
            stable = farm.run_until_stable(timeout=200.0)
            rows.append(
                {
                    "T_beacon": tb,
                    "stable_time_s": stable,
                    "commits": farm.sim.trace.count("gs.2pc.commit"),
                    "merges": farm.sim.trace.count("gs.merge.absorb"),
                    "frames": sum(s.frames_sent for s in farm.fabric.segments.values()),
                }
            )
        return rows

    rows = once(benchmark, run)
    table = format_table(
        rows,
        columns=["T_beacon", "stable_time_s", "commits", "merges", "frames"],
        title=(
            "T_beacon = 0 ablation (15 nodes, ideal OS)\n"
            "paper §2.1: forming and merging singleton AMGs is more "
            "expensive than beaconing first"
        ),
    )
    emit("fig5_zero_beacon_ablation", table)
    zero, five = rows
    assert zero["commits"] > five["commits"]
    assert zero["stable_time_s"] is not None and five["stable_time_s"] is not None
