#!/usr/bin/env python
"""An Océano multi-domain hosting farm riding out a flash crowd (Figure 1).

Builds a farm in the paper's Figure 1/2 shape — two customer domains with
front-end and back-end layers, request dispatchers, admin-eligible
management nodes, and a pool of spare servers — then hits one domain with a
flash crowd ("peak loads that are orders of magnitude larger than the
normal steady state"). The autoscaler, fed the synthetic load curve, grows
the domain by moving spare nodes' adapters onto its VLAN through
GulfStream's reconfiguration path, and drains them back once the crowd
passes.

Run:  python examples/oceano_farm.py
"""

from repro.farm import DomainSpec, FarmSpec, build_farm
from repro.gulfstream import GSParams
from repro.workload import Autoscaler, DomainLoadModel


def domain_report(farm, ctl, workload, t):
    parts = []
    for dom in workload.domains:
        size = ctl.domain_size(dom)
        load = workload.load(dom, t)
        parts.append(f"{dom}: {size} servers @ {load:5.0f} req/s")
    return " | ".join(parts)


def main() -> None:
    spec = FarmSpec(
        domains=[
            DomainSpec("acme", front_ends=2, back_ends=2),
            DomainSpec("globex", front_ends=2, back_ends=1),
        ],
        dispatchers=2,
        management_nodes=2,
        spare_nodes=3,
        switches=2,
    )
    params = GSParams(
        beacon_duration=3.0, amg_stable_wait=3.0, gsc_stable_wait=6.0,
        hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
        takeover_stagger=0.5,
    )
    farm = build_farm(spec, seed=7, params=params)
    print(f"farm: {spec.total_nodes} nodes, domains {list(farm.domain_vlans)}, "
          f"{len(farm.fabric.switches)} switches")
    farm.start()
    stable = farm.run_until_stable(timeout=120.0)
    print(f"discovery stable at {stable:.2f}s; GSC on {farm.gsc_host().name}; "
          f"{len(farm.gsc().groups)} AMGs\n")

    t0 = farm.sim.now
    workload = DomainLoadModel(
        ["acme", "globex"], base=80.0, amplitude=0.0,
        spikes={"acme": (t0 + 20.0, 150.0, 900.0)},
    )
    ctl = Autoscaler(farm, workload.domains, load=workload.load,
                     interval=5.0, high_water=50.0, low_water=18.0)
    ctl.start()

    print("time   farm state")
    for step in range(12):
        farm.sim.run(until=t0 + 30.0 * (step + 1))
        t = farm.sim.now
        print(f"{t:6.0f}  {domain_report(farm, ctl, workload, t)}  "
              f"spares={len(farm.spare_nodes)}")

    print("\nmoves issued by the controller:")
    for m in ctl.moves:
        print(f"  t={m.time:7.1f}s  {m.node}: {m.src} -> {m.dst}")

    print("\nGSC's view of the reconfiguration:")
    for note in farm.bus.history:
        if note.kind in ("move_detected", "move_completed"):
            print(f"  {note}")
    print(f"\nfailure notifications during all moves: "
          f"{farm.bus.count('adapter_failed')} (expected moves are suppressed, §3.1)")
    print(f"database still consistent: {farm.gsc().verify_topology() == []}")


if __name__ == "__main__":
    main()
