"""WORKLOAD — the traffic plane's capacity point.

The headline number the traffic plane exists to produce (§1: requests
"must be accomplished with minimal service interruption" while the farm
reconfigures): a CI-sized campaign streams Zipf/Poisson user requests
through the dispatcher cut into live domains while the autoscaler moves
spares and a mixed chaos schedule runs underneath, and we record

* ``moves_per_hour`` — live domain moves per simulated hour sustained
  with **zero invariant violations** (the capacity claim itself);
* ``availability`` — completed/issued during the churn.

The floors asserted here are semantic, not machine-speed: the campaign
must keep availability through chaos, the autoscaler must actually move,
and no invariant may break. Every column is simulated, so
``benchmarks/results/workload.txt`` is byte-identical on every run; the
harness's own speed is measured by ``benchmarks/e2e/``'s ``traffic``
workload.
"""

from repro.analysis import format_table
from repro.workload.traffic import build_traffic_report, run_traffic_campaign

from _common import bench_jobs, emit, once

CASES = 3
DURATION = 30.0
RATE = 120.0
#: redundant front ends per domain: the dispatcher's failover retry is
#: part of what the availability floor measures
FRONT_ENDS = 2
MIX = "mixed"


def run_campaign():
    rows = run_traffic_campaign(
        cases=CASES, jobs=bench_jobs(), base_seed=0,
        duration=DURATION, rate=RATE, mix=MIX,
        front_ends=FRONT_ENDS,
    )
    report = build_traffic_report(rows, base_seed=0, mix=MIX)
    return report, {
        "cases": CASES,
        "issued": report["requests"]["issued"],
        "availability": report["slo"]["availability"],
        "latency_p99_ms": round(report["slo"]["latency_worst"]["p99"] * 1000, 3),
        "moves": report["moves"]["total"],
        "moves_per_hour": report["moves_per_hour_sustained"],
    }


def test_workload_capacity(benchmark):
    report, m = once(benchmark, run_campaign)
    table = format_table(
        [m],
        columns=["cases", "issued", "availability", "latency_p99_ms",
                 "moves", "moves_per_hour"],
        title=(
            f"Traffic-plane capacity ({CASES} cases x {DURATION:.0f}s at "
            f"{RATE:.0f} req/s peak, mix={MIX})\n"
            "moves_per_hour counts only moves sustained without invariant "
            "violation"
        ),
    )
    emit("workload", table)

    # semantic floors on the CI-sized point — machine-independent
    assert report["ok"], f"invariant violations: {report['violations']}"
    # mixed chaos legitimately costs a few percent of availability in a
    # 30 s window (a crashed host outlives the dispatcher's retry
    # patience); the floor matches the chaos-case threshold in
    # tests/workload/test_traffic.py
    assert m["availability"] > 0.9
    assert m["moves"] >= 2, "autoscaler never moved under the diurnal load"
    assert m["moves_per_hour"] > 0.0
    assert sum(report["faults_injected"].values()) >= CASES * 6  # chaos really ran
    assert m["issued"] > CASES * DURATION * RATE * 0.2  # stream really flowed
