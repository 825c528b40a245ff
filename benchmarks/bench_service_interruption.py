"""MOVE-SLA — "minimal service interruption" (§1), measured.

"Océano reallocates servers in short time (minutes) in response to
changing workloads or failures. These changes require networking
reconfiguration, which must be accomplished with minimal service
interruption."

Request traffic (dispatcher → front ends → back ends, riding the same
simulated fabric and the live AMG views as its service directory) runs
against a domain while we subject it to: nothing (baseline), a GulfStream-
managed node move out of the domain, a spare moved in, and — for contrast —
an unmanaged hard crash. Interruption = failed requests in the 30 s
window around the event, plus the retry burst.

Expected shape: moves cost at most a handful of requests (the seconds
until the AMG recommits and the front ends' worker directories update),
far less than the crash, and service returns to 100 % afterwards.
"""


from repro.analysis import format_table
from repro.farm import DomainSpec, FarmSpec, TrafficSource, build_farm, deploy_service
from repro.gulfstream.params import GSParams
from repro.node.osmodel import OSParams
from repro.workload.generators import constant_rate

from _common import emit, once

PARAMS = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                  hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                  takeover_stagger=0.5, suspect_retry_interval=0.5)
RATE = 100.0
WINDOW = 30.0


def build():
    spec = FarmSpec(
        domains=[DomainSpec("acme", front_ends=2, back_ends=4)],
        dispatchers=1, management_nodes=1, spare_nodes=1,
    )
    farm = build_farm(spec, seed=21, params=PARAMS, os_params=OSParams.fast())
    front_ends = deploy_service(farm, request_timeout=2.0)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    TrafficSource(farm.hosts["dispatch-0"], front_ends, constant_rate("acme", RATE),
                  start_at=farm.sim.now, timeout=2.0, max_retries=1)
    # warm-up so the windowed counters start from a steady state
    farm.sim.run(until=farm.sim.now + 10.0)
    return farm


def count(farm, name) -> int:
    return farm.sim.metrics.counter(f"traffic.{name}", domain="acme").value


def measure_window(farm, action) -> dict:
    t0 = farm.sim.now
    f0, r0 = count(farm, "failed"), count(farm, "retried")
    if action is not None:
        action(farm)
    farm.sim.run(until=t0 + WINDOW)
    issued_window = int(RATE * WINDOW)
    failed = count(farm, "failed") - f0
    return {
        "failed": failed,
        "retried": count(farm, "retried") - r0,
        "interruption_pct": 100.0 * failed / issued_window,
    }


def run_matrix():
    rows = []

    def baseline(farm):
        return None

    def move_out(farm):
        rm = farm.reconfig()
        rm.move_node(farm.hosts["acme-be-2"], {farm.domain_vlans["acme"]: 99})

    def move_in(farm):
        rm = farm.reconfig()
        rm.move_node(farm.hosts["spare-0"], {99: farm.domain_vlans["acme"]})

    def crash(farm):
        farm.hosts["acme-be-3"].crash()

    scenarios = [
        ("baseline (no event)", None),
        ("move back end OUT (managed)", move_out),
        ("move spare IN (managed)", move_in),
        ("hard crash (unmanaged)", crash),
    ]
    farm = build()
    for label, action in scenarios:
        window = measure_window(farm, action)
        rows.append({"scenario": label, **window})
        # quiet gap between scenarios so effects don't bleed over
        farm.sim.run(until=farm.sim.now + 20.0)
    # post-matrix steady state: service fully recovered
    recovery = measure_window(farm, None)
    rows.append({"scenario": "post-event steady state", **recovery})
    completed, failed = count(farm, "completed"), count(farm, "failed")
    return rows, completed / (completed + failed)


def test_service_interruption(benchmark):
    rows, success_rate = once(benchmark, run_matrix)
    table = format_table(
        rows,
        columns=["scenario", "failed", "retried", "interruption_pct"],
        title=(
            f"Service interruption per event ({RATE:.0f} req/s, {WINDOW:.0f} s "
            "windows; §1 'minimal service interruption')\n"
            "requests ride the same fabric; front ends pick workers from "
            "their live AMG views"
        ),
    )
    emit("service_interruption", table)
    by = {r["scenario"]: r for r in rows}
    assert by["baseline (no event)"]["failed"] == 0
    # managed moves interrupt less than 1% of requests in the window
    assert by["move back end OUT (managed)"]["interruption_pct"] < 1.0
    assert by["move spare IN (managed)"]["interruption_pct"] < 1.0
    # the move is never worse than the unmanaged crash
    assert (by["move back end OUT (managed)"]["failed"]
            <= by["hard crash (unmanaged)"]["failed"] + 2)
    # service fully recovers
    assert by["post-event steady state"]["failed"] == 0
    # overall health despite four events
    assert success_rate > 0.995
