"""Layout invariance at farm scale: byte-identical artifacts.

The sharding acceptance bar (PROTOCOL §9): for any scenario, every layout of
two or more workers must produce *byte-identical* trace streams,
counters, notification histories, segment totals, and merged metrics.
The ZONED farm has three islands, so ``shards=2`` (two workers, one of
them holding two islands) and ``"auto"`` (one worker per island) are two
different layouts; both send every plan, epoch payload and result through
real pipes as real pickles, so equality certifies that the layout changed
nothing but wall-clock time. (``shards=1`` is the classic one-simulator
run, with no cut; ``tests/shard/test_classic_vs_sharded.py`` compares it.)

Covers the corpus-shaped fault space: crash storms, adapter flaps with
explicit NIC failure modes, VLAN partitions with scripted groups, and
switch/router faults (which are broadcast to every island). The
randomized differential at the bottom draws whole fault *programs* the
same way the chaos corpus does and replays each at both layouts.

The traffic farm has two islands, where ``2`` and ``"auto"`` are one
layout; its tests compare the classic run with ``shards=2`` instead,
and name the fields the cut's lookahead is allowed to move.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm.builder import build_zoned_farm
from repro.net.nic import NicState
from repro.node.faults import FaultPlan
from repro.node.osmodel import OSParams
from repro.sim.shard import run_sharded

from tests.conftest import FAST
from tests.workload.test_traffic import assert_same_but_lookahead

#: 2 zones x 3 nodes -> 3 islands (management hub + two zones)
ZONED = dict(
    n_zones=2, nodes_per_zone=3, seed=77, params=FAST, os_params=OSParams.fast()
)
ZONE0_VLAN = 20
ZONE1_VLAN = 23  # vlans_per_zone defaults to 3


def _metrics_snapshot(res):
    reg = res.metrics
    reg.collect()
    return {m.key: m.value_dict() for m in reg}


def _fingerprint(res):
    return {
        "stable": res.stable_time,
        "clock": res.duration,
        "events": res.events_executed,
        "counters": res.counters,
        "records": [
            (r.time, r.category, r.source, str(sorted(r.data.items())))
            for r in res.trace_records
        ],
        "notifications": res.notifications,
        "segments": res.segment_stats,
        "unfired": res.unfired_faults,
        "cross": res.cross_messages,
        "dropped": res.dropped_in_flight,
        "metrics": _metrics_snapshot(res),
    }


def _vlan_groups(vlan, split_at):
    """Partition groups (adapter IP strings) for every member of ``vlan``."""
    members = []
    for r in build_zoned_farm(**ZONED).node_records:
        if vlan in r.vlans:
            members.append(str(r.ips[r.vlans.index(vlan)]))
    return [members[:split_at], members[split_at:]]


def _run(shards, plan=None, duration=18.0, factory_kwargs=ZONED):
    return run_sharded(
        build_zoned_farm,
        factory_kwargs,
        plan=plan,
        duration=duration,
        shards=shards,
    )


def _assert_equivalent(plan, duration=18.0, factory_kwargs=ZONED):
    two = _fingerprint(_run(2, plan, duration, factory_kwargs))
    auto = _fingerprint(_run("auto", plan, duration, factory_kwargs))
    assert two["cross"] > 0  # the islands did talk across the cut
    for key in two:
        assert two[key] == auto[key], f"{key} diverged between layouts"


# ----------------------------------------------------------------------
# scripted corpus-shaped scenarios
# ----------------------------------------------------------------------
def test_plain_discovery_equivalent():
    _assert_equivalent(None)


@pytest.mark.slow
def test_crash_storm_equivalent():
    """Simultaneous crashes in both zones, staggered restarts."""
    plan = (
        FaultPlan()
        .crash_node(13.0, "z0-n1")
        .crash_node(13.0, "z1-n2")
        .crash_node(13.5, "z0-n2")
        .restart_node(15.0, "z0-n1")
        .restart_node(15.5, "z1-n2")
    )
    _assert_equivalent(plan, duration=22.0)


@pytest.mark.slow
def test_adapter_flaps_with_modes_equivalent():
    """NIC failure modes on both admin and data adapters: the admin flap
    crosses the cut (its segment spans islands), the data flap does not."""
    farm = build_zoned_farm(**ZONED)
    by_name = {r.name: r for r in farm.node_records}
    admin_ip = str(by_name["z0-n1"].ips[0])
    data_ip = str(by_name["z1-n0"].ips[1])
    plan = (
        FaultPlan()
        .fail_adapter(13.0, admin_ip, mode=NicState.FAIL_FULL)
        .fail_adapter(13.2, data_ip, mode=NicState.FAIL_SEND)
        .repair_adapter(15.0, admin_ip)
        .repair_adapter(15.5, data_ip)
    )
    _assert_equivalent(plan, duration=22.0)


@pytest.mark.slow
def test_vlan_partition_and_switch_faults_equivalent():
    """A scripted split-brain inside zone 0 plus a switch outage: the
    partition stays island-local, the switch fault replays everywhere."""
    groups = _vlan_groups(ZONE0_VLAN, split_at=1)
    plan = (
        FaultPlan()
        .partition(13.0, ZONE0_VLAN, groups)
        .fail_switch(14.0, "switch-0")
        .repair_switch(16.0, "switch-0")
        .heal(17.0, ZONE0_VLAN)
    )
    _assert_equivalent(plan, duration=24.0)


@pytest.mark.slow
def test_three_way_layout_invariance():
    """auto (one worker per island) agrees with 2 workers and with an
    explicit 3: worker *layout* is free, only the partition is semantic."""
    plan = FaultPlan().crash_node(13.0, "z1-n1")
    prints = {
        shards: _fingerprint(_run(shards, plan, duration=20.0))
        for shards in (2, 3, "auto")
    }
    assert prints[2] == prints[3] == prints["auto"]


# ----------------------------------------------------------------------
# the traffic plane: requests + autoscaler moves + chaos across the cut
# ----------------------------------------------------------------------
def test_traffic_case_rows_identical_at_1_vs_2():
    """A full traffic case — streamed requests crossing the dispatcher cut,
    live autoscaler moves on the data island — classic vs two workers:
    every request, move, check and fault count is the same; only the
    fields the lookahead moves differ."""
    from repro.workload.traffic import run_traffic_case

    kw = dict(case=0, seed=7, duration=15.0, rate=80.0, n_users=50_000)
    classic = run_traffic_case(shards=1, **kw)
    sharded = run_traffic_case(shards=2, **kw)
    assert_same_but_lookahead(classic, sharded)
    assert classic["latency"]["p50"] < sharded["latency"]["p50"]


@pytest.mark.slow
def test_traffic_chaos_three_way_layout_invariance():
    """With a chaos mix on top (faults island-local, requests crossing the
    cut, retries timing out against cross-shard latency): shards=2 and
    auto fold to identical rows and identical SLO reports."""
    from repro.workload.traffic import build_traffic_report, run_traffic_case

    kw = dict(case=0, seed=3, duration=20.0, rate=80.0, n_users=50_000,
              mix="mixed")
    rows = {s: run_traffic_case(shards=s, **kw) for s in (2, "auto")}
    assert rows[2] == rows["auto"]
    reports = {
        s: build_traffic_report([{**row, "case": 0}], base_seed=3, mix="mixed")
        for s, row in rows.items()
    }
    assert reports[2] == reports["auto"]
    assert reports[2]["ok"], reports[2]["violations"]
    assert sum(reports[2]["faults_injected"].values()) >= 6


@pytest.mark.slow
def test_traffic_scenario_fingerprints_identical():
    """The raw ShardedScenarioResult artifacts (not just the folded row),
    classic vs two workers. The lookahead delays every admin-VLAN crossing,
    so discovery settles later and the heartbeat ring on the admin VLAN
    (the cut) gets through fewer rounds; everything off that VLAN — every
    data and dispatch segment, the request plane's counters, the trace
    records and notifications bar their times — is the same."""
    from repro.farm.builder import ADMIN_VLAN
    from repro.farm.domain import DISPATCH_VLAN
    from repro.workload.traffic import (
        TRAFFIC_START, TRAFFIC_TRACE_CATEGORIES, build_traffic_farm,
        traffic_horizon,
    )

    kw = dict(duration=15.0, rate=80.0, n_users=50_000, seed=11)
    res, prints = {}, {}
    for shards in (1, 2):
        res[shards] = run_sharded(
            build_traffic_farm, kw,
            duration=traffic_horizon(15.0, None),
            stability_timeout=TRAFFIC_START,
            shards=shards,
            cut_vlans=(ADMIN_VLAN, DISPATCH_VLAN),
            trace_categories=TRAFFIC_TRACE_CATEGORIES,
        )
        prints[shards] = _fingerprint(res[shards])
    classic, sharded = prints[1], prints[2]
    assert res[1].n_islands == 1 and res[2].n_islands == 2
    assert classic["cross"] == 0 and sharded["cross"] > 0
    for key in ("clock", "unfired", "dropped"):
        assert classic[key] == sharded[key], key
    assert classic["stable"] < sharded["stable"]
    assert [r[1:] for r in classic["records"]] == [r[1:] for r in sharded["records"]]
    assert [(n.kind, n.subject, n.detail) for n in classic["notifications"]] == [
        (n.kind, n.subject, n.detail) for n in sharded["notifications"]
    ]
    for vlan, stats in classic["segments"].items():
        if vlan != ADMIN_VLAN:
            assert stats == sharded["segments"][vlan], vlan
    request_plane = [
        key for key in classic["metrics"]
        if key.startswith(("traffic.", "autoscaler.", "checks.", "chaos."))
        and key != "traffic.latency_s"
    ]
    assert any(key.startswith("traffic.requests") for key in request_plane)
    for key in request_plane:
        assert classic["metrics"][key] == sharded["metrics"][key], key


# ----------------------------------------------------------------------
# randomized differential: whole fault programs, both layouts
# ----------------------------------------------------------------------
_NODES = [f"z{z}-n{i}" for z in range(2) for i in range(3)]

_action = st.one_of(
    st.tuples(st.just("crash"), st.sampled_from(_NODES)),
    st.tuples(st.just("crash_restart"), st.sampled_from(_NODES)),
    st.tuples(
        st.just("flap"),
        st.sampled_from(_NODES),
        st.sampled_from([NicState.FAIL_FULL, NicState.FAIL_SEND, NicState.FAIL_RECV]),
    ),
    st.tuples(st.just("split"), st.sampled_from([ZONE0_VLAN, ZONE1_VLAN])),
    st.tuples(st.just("switch"), st.just("switch-0")),
)


def _compile(program):
    """Deterministically schedule a drawn program over (12.5s, 16.5s)."""
    plan = FaultPlan()
    farm = build_zoned_farm(**ZONED)
    by_name = {r.name: r for r in farm.node_records}
    for i, action in enumerate(program):
        t = 12.5 + i * 0.8
        kind = action[0]
        if kind == "crash":
            plan.crash_node(t, action[1])
        elif kind == "crash_restart":
            plan.crash_node(t, action[1]).restart_node(t + 1.7, action[1])
        elif kind == "flap":
            ip = str(by_name[action[1]].ips[0])
            plan.fail_adapter(t, ip, mode=action[2]).repair_adapter(t + 1.3, ip)
        elif kind == "split":
            vlan = action[1]
            plan.partition(t, vlan, _vlan_groups(vlan, split_at=1)).heal(t + 1.9, vlan)
        else:
            plan.fail_switch(t, action[1]).repair_switch(t + 1.1, action[1])
    return plan


@pytest.mark.slow
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.lists(_action, min_size=1, max_size=4))
def test_differential_random_fault_programs_layout_invariant(program):
    _assert_equivalent(_compile(program), duration=21.0)
