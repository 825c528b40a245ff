"""The reallocation controller on a synthetic load curve."""


from repro.farm.builder import build_farm, FREE_POOL_VLAN
from repro.farm.domain import DomainSpec, FarmSpec
from repro.workload import Autoscaler, DomainLoadModel
from repro.workload.autoscaler import MIN_SERVERS

from tests.conftest import FAST

HB = FAST.derive(hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                 takeover_stagger=0.5, suspect_retry_interval=0.5)


def test_workload_is_deterministic_and_nonnegative():
    wl = DomainLoadModel(["a", "b"], base=100, amplitude=150, period=60)
    xs = [wl.load("a", t) for t in range(0, 200, 10)]
    assert xs == [wl.load("a", t) for t in range(0, 200, 10)]
    assert all(x >= 0 for x in xs)
    # phase shift: domains differ
    assert wl.load("a", 15) != wl.load("b", 15)


def test_workload_spikes():
    wl = DomainLoadModel(["a"], base=10, amplitude=0, spikes={"a": (50, 20, 500)})
    assert wl.load("a", 40) == 10
    assert wl.load("a", 60) == 510
    assert wl.load("a", 80) == 10


def oceano_farm(seed):
    spec = FarmSpec(
        domains=[DomainSpec("acme", 2, 1), DomainSpec("globex", 2, 1)],
        dispatchers=1, management_nodes=1, spare_nodes=2, switches=1,
    )
    farm = build_farm(spec, seed=seed, params=HB)
    farm.start()
    t = farm.run_until_stable(timeout=120)
    assert t is not None
    return farm


def test_oceano_grows_domain_under_spike():
    farm = oceano_farm(4)
    t0 = farm.sim.now
    wl = DomainLoadModel(["acme", "globex"], base=60, amplitude=0,
                         spikes={"acme": (t0 + 5, 500, 600)})
    ctl = Autoscaler(farm, wl.domains, load=wl.load,
                     interval=5.0, high_water=50.0, low_water=10.0)
    ctl.start()
    farm.sim.run(until=t0 + 60)
    grown = [m for m in ctl.moves if m.dst == "acme"]
    assert len(grown) == 2  # both spares pulled in
    assert farm.spare_nodes == []
    # moves completed cleanly at GSC
    assert farm.bus.count("move_completed") >= 2
    assert farm.bus.count("adapter_failed") == 0


def test_oceano_shrinks_when_load_drops():
    farm = oceano_farm(5)
    t0 = farm.sim.now
    wl = DomainLoadModel(["acme", "globex"], base=60, amplitude=0,
                         spikes={"acme": (t0 + 5, 60, 600)})
    ctl = Autoscaler(farm, wl.domains, load=wl.load,
                     interval=5.0, high_water=50.0, low_water=25.0)
    ctl.start()
    farm.sim.run(until=t0 + 200)
    assert any(m.dst == "acme" for m in ctl.moves)
    assert any(m.src == "acme" and m.dst == "free-pool" for m in ctl.moves)
    # the shrunk node is back in the pool on the free-pool vlan
    assert farm.spare_nodes
    node = farm.hosts[farm.spare_nodes[0]]
    assert node.adapters[1].port.vlan == FREE_POOL_VLAN


def test_oceano_respects_min_servers():
    """A one-server domain grown by two spares gives back only one once its
    load is gone: the shrink stops at ``MIN_SERVERS``."""
    assert MIN_SERVERS == 2
    spec = FarmSpec(domains=[DomainSpec("acme", 1, 0), DomainSpec("globex", 2, 1)],
                    dispatchers=1, management_nodes=1, spare_nodes=2, switches=1)
    farm = build_farm(spec, seed=6, params=HB)
    farm.start()
    assert farm.run_until_stable(timeout=120) is not None
    t0 = farm.sim.now
    wl = DomainLoadModel(["acme", "globex"], base=0, amplitude=0,
                         spikes={"acme": (t0 + 5, 12, 600)})
    ctl = Autoscaler(farm, wl.domains, load=wl.load,
                     interval=5.0, high_water=50.0, low_water=25.0)
    ctl.start()
    farm.sim.run(until=t0 + 120)
    assert [(m.src, m.dst) for m in ctl.moves] == [
        ("free-pool", "acme"), ("free-pool", "acme"), ("acme", "free-pool"),
    ]
    assert ctl.domain_size("acme") == MIN_SERVERS
    assert farm.spare_nodes == [ctl.moves[-1].node]


def test_oceano_waits_for_stability():
    """The controller must not reshape the farm before discovery settles."""
    spec = FarmSpec(domains=[DomainSpec("acme", 2, 1)], dispatchers=1,
                    management_nodes=1, spare_nodes=1)
    farm = build_farm(spec, seed=7, params=HB)
    wl = DomainLoadModel(["acme"], base=1000, amplitude=0)
    ctl = Autoscaler(farm, wl.domains, load=wl.load, interval=1.0, high_water=10.0)
    farm.start()
    ctl.start()
    farm.sim.run(until=2.0)  # discovery still in progress
    assert ctl.moves == []
    farm.run_until_stable(timeout=120)
    farm.sim.run(until=farm.sim.now + 20)
    assert ctl.moves  # acted once stable
