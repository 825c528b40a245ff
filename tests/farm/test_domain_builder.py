"""Farm specs and builders: the Figure 1/2 topologies."""

import pytest

from repro.farm.builder import FREE_POOL_VLAN, build_farm, build_testbed
from repro.farm.domain import ADMIN_VLAN, DISPATCH_VLAN, DomainSpec, FarmSpec

from tests.conftest import FAST, run_stable


def spec():
    return FarmSpec(
        domains=[DomainSpec("acme", front_ends=2, back_ends=2),
                 DomainSpec("globex", front_ends=1, back_ends=1)],
        dispatchers=2,
        management_nodes=2,
        spare_nodes=1,
        switches=2,
    )


def test_spec_validation():
    spec().validate()
    with pytest.raises(ValueError):
        FarmSpec(domains=[]).validate()
    with pytest.raises(ValueError):
        FarmSpec(domains=[DomainSpec("a", front_ends=0)]).validate()
    with pytest.raises(ValueError):
        FarmSpec(domains=[DomainSpec("a"), DomainSpec("a")]).validate()
    with pytest.raises(ValueError):
        FarmSpec(domains=[DomainSpec("a")], dispatchers=0).validate()


def test_spec_totals():
    s = spec()
    assert s.total_nodes == 4 + 2 + 2 + 2 + 1
    assert s.domains[0].servers == 4


def test_extra_layers():
    d = DomainSpec("deep", front_ends=1, back_ends=1, extra_layers=[2])
    assert d.servers == 4
    with pytest.raises(ValueError):
        DomainSpec("bad", extra_layers=[0]).validate()


def test_testbed_shape():
    """§4.1: three adapters per node, one AMG per adapter class."""
    farm = build_testbed(6, seed=1, params=FAST)
    assert len(farm.hosts) == 6
    for host in farm.hosts.values():
        assert len(host.adapters) == 3
        assert host.adapters[0].port.vlan == ADMIN_VLAN
    assert len(farm.fabric.segments) == 3


def test_testbed_discovers_three_groups():
    farm = build_testbed(5, seed=2, params=FAST)
    farm.start()
    run_stable(farm)
    gsc = farm.gsc()
    assert len(gsc.groups) == 3
    assert len(gsc.adapters) == 15


def test_farm_layout_matches_figure_2():
    farm = build_farm(spec(), seed=3, params=FAST)
    # front ends: admin + internal + dispatch
    fe = farm.hosts["acme-fe-0"]
    assert [n.port.vlan for n in fe.adapters] == [
        ADMIN_VLAN, farm.domain_vlans["acme"], DISPATCH_VLAN
    ]
    # back ends: admin + internal only
    be = farm.hosts["acme-be-0"]
    assert [n.port.vlan for n in be.adapters] == [ADMIN_VLAN, farm.domain_vlans["acme"]]
    # dispatchers share the dispatch vlan with front ends
    disp = farm.hosts["dispatch-0"]
    assert [n.port.vlan for n in disp.adapters] == [ADMIN_VLAN, DISPATCH_VLAN]
    # management nodes are eligible, servers are not
    assert farm.hosts["mgmt-0"].admin_eligible
    assert not fe.admin_eligible
    # spares parked on the free pool
    assert farm.hosts["spare-0"].adapters[1].port.vlan == FREE_POOL_VLAN
    # domains are network-isolated: distinct internal vlans
    assert farm.domain_vlans["acme"] != farm.domain_vlans["globex"]


def test_farm_discovery_group_count():
    farm = build_farm(spec(), seed=4, params=FAST)
    farm.start()
    run_stable(farm, timeout=120)
    gsc = farm.gsc()
    # admin + dispatch + 2 domain-internal + free-pool = 5 AMGs
    assert len(gsc.groups) == 5
    assert farm.gsc_host().name.startswith("mgmt")


def test_domains_cannot_talk_to_each_other():
    farm = build_farm(spec(), seed=5, params=FAST)
    acme = farm.hosts["acme-be-0"].adapters[1]
    globex = farm.hosts["globex-be-0"].adapters[1]
    got = []
    globex.handler = got.append
    acme.send(globex.ip, "cross-domain")
    farm.sim.run(until=1.0)
    assert got == []


def test_unique_ips_across_farm():
    farm = build_farm(spec(), seed=6, params=FAST)
    ips = [n.ip for h in farm.hosts.values() for n in h.adapters]
    assert len(ips) == len(set(ips))


def test_switch_round_robin_spreads_nodes():
    farm = build_farm(spec(), seed=7, params=FAST)
    assert len(farm.fabric.switches) == 2


def test_leader_of_vlan_helper():
    farm = build_testbed(4, seed=8, params=FAST)
    farm.start()
    run_stable(farm)
    leader = farm.leader_of_vlan(10)
    assert leader is not None
    assert leader.nic.port.vlan == 10

