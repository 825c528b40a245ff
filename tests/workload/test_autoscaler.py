"""The controller on a synthetic load signal (``Autoscaler(load=...)``).

The measured-signal path is exercised by every traffic case; this pins the
other one — the §1 flash-crowd experiment of ``benchmarks/bench_reconfig.py``
— down to the move, outside the slow bench.
"""

from repro.farm import DomainSpec, FarmSpec, build_farm
from repro.gulfstream import GSParams
from repro.node.osmodel import OSParams
from repro.workload import Autoscaler, DomainLoadModel

PARAMS = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                  hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                  takeover_stagger=0.5, suspect_retry_interval=0.5)


def test_flash_crowd_curve_yields_exactly_the_six_moves():
    spec = FarmSpec(
        domains=[DomainSpec("acme", 2, 2), DomainSpec("globex", 2, 2)],
        dispatchers=2, management_nodes=2, spare_nodes=3, switches=2,
    )
    farm = build_farm(spec, seed=11, params=PARAMS, os_params=OSParams.fast())
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    t0 = farm.sim.now
    assert t0 == 8.5
    wl = DomainLoadModel(
        ["acme", "globex"], base=80, amplitude=0,
        spikes={"acme": (t0 + 10, 120, 900)},
    )
    ctl = Autoscaler(farm, wl.domains, load=wl.load,
                     interval=5.0, high_water=50.0, low_water=18.0)
    ctl.start()
    farm.sim.run(until=t0 + 160.0)
    # one spare per tick while the spike lasts (980 req/s over 4..6 servers
    # is still above high water), drained LIFO once it has passed
    assert [(m.time, m.node, m.src, m.dst) for m in ctl.moves] == [
        (18.5, "spare-0", "free-pool", "acme"),
        (23.5, "spare-1", "free-pool", "acme"),
        (28.5, "spare-2", "free-pool", "acme"),
        (138.5, "spare-2", "acme", "free-pool"),
        (143.5, "spare-1", "acme", "free-pool"),
        (148.5, "spare-0", "acme", "free-pool"),
    ]
    assert farm.spare_nodes == ["spare-2", "spare-1", "spare-0"]
