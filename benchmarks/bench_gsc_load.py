"""SCALE-GSC — GulfStream Central's load (§2.2, §4.2).

Paper claims to measure against:

* "membership information is sent to GulfStream Central only when it
  changes. In the steady state, no network resources are used for group
  membership information";
* "group leaders typically need only report changes in group membership,
  not the entire membership" — deltas, not snapshots;
* "access to the configuration database has been limited to GulfStream
  Central" — DB reads don't grow with farm size.

Tables: GSC report traffic during discovery / steady state / churn as the
farm grows, and the delta-vs-full report ablation.
"""

from repro.analysis import format_table
from repro.farm.builder import build_testbed
from repro.gulfstream.messages import SIZE_CONTROL, membership_msg_size
from repro.gulfstream.params import GSParams
from repro.node.faults import FaultInjector
from repro.node.osmodel import OSParams

from _common import emit, once

PARAMS = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                  hb_interval=1.0, probe_timeout=0.5, orphan_timeout=4.0,
                  takeover_stagger=0.5)


def run_gsc_load():
    rows = []
    for n in (10, 25, 55):
        farm = build_testbed(n, seed=n, params=PARAMS, os_params=OSParams.fast())
        farm.start()
        assert farm.run_until_stable(timeout=120.0) is not None
        # the registry's gsc.* counters are farm-wide and survive GSC
        # failovers (every Central instance resolves the same instruments),
        # so read those instead of one instance's tallies
        m_reports = farm.sim.metrics.counter("gsc.reports")
        m_bytes = farm.sim.metrics.counter("gsc.report_bytes")
        discovery_reports = m_reports.value
        discovery_bytes = m_bytes.value
        # steady state: one minute of nothing happening
        t0 = farm.sim.now
        farm.sim.run(until=t0 + 60.0)
        steady_reports = m_reports.value - discovery_reports
        # churn: random crash/restart for two minutes
        inj = FaultInjector(farm.sim, farm.hosts, mtbf=120.0, mttr=15.0)
        inj.start()
        c0 = m_reports.value
        t1 = farm.sim.now
        farm.sim.run(until=t1 + 120.0)
        inj.stop()
        churn_reports = m_reports.value - c0
        rows.append(
            {
                "nodes": n,
                "adapters": n * 3,
                "discovery_reports": discovery_reports,
                "discovery_bytes": discovery_bytes,
                "steady_reports_60s": steady_reports,
                "churn_reports_120s": churn_reports,
                "churn_events": inj.crashes + inj.repairs,
                "gsc_activations": farm.bus.count("gsc_activated"),
                "db_reads": farm.configdb.reads if farm.configdb else 0,
            }
        )
    return rows


def test_gsc_load(benchmark):
    rows = once(benchmark, run_gsc_load)
    table = format_table(
        rows,
        columns=["nodes", "adapters", "discovery_reports", "discovery_bytes",
                 "steady_reports_60s", "churn_reports_120s", "churn_events",
                 "gsc_activations", "db_reads"],
        title=(
            "GulfStream Central load vs farm size (§2.2, §4.2)\n"
            "paper: silent steady state; reports only on change; the DB is "
            "read per GSC instantiation, never per node"
        ),
    )
    emit("gsc_load", table)
    for r in rows:
        # the headline claim: absolute steady-state silence
        assert r["steady_reports_60s"] == 0
        # discovery costs ~one report per AMG, not per adapter
        assert r["discovery_reports"] <= 3 * 3
        # reports track churn events, not farm size
        assert r["churn_reports_120s"] <= 6 * max(1, r["churn_events"]) + 6
        # §4.2: only GSC touches the database — reads track GSC
        # instantiations (failovers during churn), never node count
        assert r["db_reads"] <= 2 * r["gsc_activations"] + 3


def run_delta_vs_full():
    """What delta reporting saves: bytes to GSC for one membership change
    in groups of growing size."""
    rows = []
    for n in (10, 25, 55):
        farm = build_testbed(n, seed=100 + n, params=PARAMS, os_params=OSParams.fast())
        farm.start()
        assert farm.run_until_stable(timeout=120.0) is not None
        m_bytes = farm.sim.metrics.counter("gsc.report_bytes")
        b0 = m_bytes.value
        t0 = farm.sim.now
        farm.hosts[f"node-{n // 2:02d}"].crash()
        farm.sim.run(until=t0 + 30.0)
        delta_bytes = m_bytes.value - b0
        # full-membership reporting would resend every member of each of
        # the 3 affected groups
        full_bytes = sum(membership_msg_size(n - 1) for _ in range(3))
        rows.append({"nodes": n, "delta_bytes": delta_bytes, "full_bytes": full_bytes,
                     "saving": 1.0 - delta_bytes / full_bytes})
    return rows


def test_delta_vs_full_reporting(benchmark):
    rows = once(benchmark, run_delta_vs_full)
    table = format_table(
        rows,
        columns=["nodes", "delta_bytes", "full_bytes", "saving"],
        title=(
            "Bytes to GSC for one node failure: delta reports vs "
            "full-membership reports (computed equivalent)"
        ),
    )
    emit("gsc_delta_vs_full", table)
    # deltas stay constant-size; fulls grow with the group
    deltas = [r["delta_bytes"] for r in rows]
    assert max(deltas) - min(deltas) <= 2 * SIZE_CONTROL
    assert rows[-1]["saving"] > 0.5
