"""MOVE — dynamic domain reconfiguration (§3.1).

"Océano reallocates servers in short time (minutes) in response to changing
workloads or failures. These changes require networking reconfiguration,
which must be accomplished with minimal service interruption."

Tables:

1. the move-cascade timeline: from the SNMP VLAN rewrite to (a) the old
   AMG recommitting without the mover, (b) the mover joining its new AMG,
   (c) GSC publishing move_completed — with zero spurious failure
   notifications;
2. an Océano flash-crowd scenario: spare nodes pulled into a spiking domain
   and returned afterwards, counting moves and reconvergence.
"""

import numpy as np

from repro.analysis import format_table
from repro.farm.builder import FarmBuilder, build_farm
from repro.farm.domain import DomainSpec, FarmSpec
from repro.gulfstream.params import GSParams
from repro.node.osmodel import OSParams
from repro.workload import Autoscaler, DomainLoadModel

from _common import emit, once

PARAMS = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                  hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                  takeover_stagger=0.5, suspect_retry_interval=0.5)


def move_timeline(domain_size: int, seed: int) -> dict:
    b = FarmBuilder(seed=seed, params=PARAMS, os_params=OSParams.fast())
    for i in range(domain_size):
        b.add_node(f"a-{i}", [1, 2], admin_eligible=(i == 0))
    for i in range(domain_size):
        b.add_node(f"b-{i}", [1, 3])
    farm = b.finish()
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    rm = farm.reconfig()
    mover = farm.hosts["a-1"].adapters[1]
    t0 = farm.sim.now
    rm.move_adapter(mover.ip, 3)
    farm.sim.run(until=t0 + 90.0)
    trace = farm.sim.trace
    old_recommit = next(
        (r.time for r in trace.select("gs.view.install")
         if r.time > t0 and r.data.get("reason") in ("death", "takeover")
         and r.data.get("size") == domain_size - 1),
        None,
    )
    joined = next(
        (r.time for r in trace.select("gs.view.install")
         if r.time > t0 and r.data.get("size") == domain_size + 1),
        None,
    )
    done = farm.bus.last("move_completed")
    return {
        "domain_size": domain_size,
        "old_amg_recommit_s": (old_recommit - t0) if old_recommit else None,
        "joined_new_amg_s": (joined - t0) if joined else None,
        "gsc_move_completed_s": (done.time - t0) if done else None,
        "false_failures": farm.bus.count("adapter_failed"),
    }


def run_timelines():
    return [move_timeline(n, seed=40 + n) for n in (3, 6, 12)]


def test_move_cascade_timeline(benchmark):
    rows = once(benchmark, run_timelines)
    table = format_table(
        rows,
        columns=["domain_size", "old_amg_recommit_s", "joined_new_amg_s",
                 "gsc_move_completed_s", "false_failures"],
        title=(
            "Domain-move cascade latency from the switch VLAN rewrite "
            "(§3.1; t_hb=0.5 s, k=2)\n"
            "expected: seconds-scale reconvergence, zero failure "
            "notifications for expected moves"
        ),
    )
    emit("reconfig_timeline", table)
    for r in rows:
        assert r["old_amg_recommit_s"] is not None and r["old_amg_recommit_s"] < 20
        assert r["joined_new_amg_s"] is not None and r["joined_new_amg_s"] < 30
        assert r["gsc_move_completed_s"] is not None and r["gsc_move_completed_s"] < 30
        assert r["false_failures"] == 0


def run_flash_crowd():
    spec = FarmSpec(
        domains=[DomainSpec("acme", 2, 2), DomainSpec("globex", 2, 2)],
        dispatchers=2, management_nodes=2, spare_nodes=3, switches=2,
    )
    farm = build_farm(spec, seed=11, params=PARAMS, os_params=OSParams.fast())
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    t0 = farm.sim.now
    wl = DomainLoadModel(
        ["acme", "globex"], base=80, amplitude=0,
        spikes={"acme": (t0 + 10, 120, 900)},
    )
    ctl = Autoscaler(farm, wl.domains, load=wl.load,
                     interval=5.0, high_water=50.0, low_water=18.0)
    ctl.start()
    farm.sim.run(until=t0 + 300.0)
    grow = [m for m in ctl.moves if m.dst == "acme"]
    shrink = [m for m in ctl.moves if m.src == "acme"]
    completions = farm.bus.of_kind("move_completed")
    latencies = [n.detail["elapsed"] for n in completions if "elapsed" in n.detail]
    return {
        "grow_moves": len(grow),
        "shrink_moves": len(shrink),
        "move_completions": len(completions),
        "mean_move_latency_s": float(np.mean(latencies)) if latencies else None,
        "false_failures": farm.bus.count("adapter_failed"),
        "inconsistencies": farm.bus.count("inconsistency"),
        "spares_back_in_pool": len(farm.spare_nodes),
    }


def test_oceano_flash_crowd(benchmark):
    row = once(benchmark, run_flash_crowd)
    table = format_table(
        [row],
        columns=list(row.keys()),
        title=(
            "Océano flash crowd: 900 req/s spike on one domain for 120 s\n"
            "spares flow in during the spike and drain afterwards; every "
            "move is clean at GSC"
        ),
    )
    emit("reconfig_flash_crowd", table)
    assert row["grow_moves"] == 3
    assert row["shrink_moves"] == 3
    assert row["spares_back_in_pool"] == 3
    assert row["false_failures"] == 0
    assert row["inconsistencies"] == 0
    assert row["mean_move_latency_s"] is not None and row["mean_move_latency_s"] < 30
