"""Scripted failures GulfStream Central never publishes, and a monitor that
does not notice (ROADMAP item 2, "Make the monitor able to fail").

The run is the end-to-end ``faults`` burst, rebuilt here from its parts:
``oceano128`` under ``CHAOS_PARAMS`` and ``OSParams.fast()``, discovered
cold, then 100 faults spread evenly over 100 simulated seconds on a
seed-shuffled list of domain servers (even index: crash the node; odd
index: fail its first data adapter, cycling FAIL_FULL / FAIL_SEND /
FAIL_RECV), each repaired 25 s later, plus 8 live moves of spare adapters
into domains, with the ``InvariantMonitor`` running throughout.

The end-to-end script spares every node that leads an AMG when the script
is written. With leaders targeted instead (seed 4), 28 of the 208 actions
are never notified: the failure and the recovery of 14 faults in domain
``charlie``, from t = 17.5 s on. The monitor reports 0 violations: it
waives 11 detection obligations as ``repaired``, because the script
repairs each fault at +25 s, past the 24.65 s obligation bound, and the
deadline is read only on the monitor's sweep grid.

Both targeted cases are strict xfails, to be turned into plain tests by the
changes that fix them: the monitor judging an obligation at its deadline
(item 2(a)), and the protocol publishing what a crashed leader's group lost
(item 2(b)). The twin with leaders spared is the end-to-end script itself,
where every action is notified and nothing is waived; it must keep passing.
"""

import random
from typing import Any, Dict, List, NamedTuple

import pytest

from repro.checks import (
    CHAOS_PARAMS, CheckWindows, InvariantMonitor, build_named_farm, monitor_trace,
)
from repro.gulfstream.adapter_proto import AdapterState
from repro.net.nic import NicState
from repro.node.faults import FaultPlan
from repro.node.osmodel import OSParams

SEED = 4
N_FAULTS = 100
N_MOVES = 8
SPAN = 100.0
REPAIR_AFTER = 25.0
FAIL_MODES = (NicState.FAIL_FULL, NicState.FAIL_SEND, NicState.FAIL_RECV)


class Action(NamedTuple):
    """One scripted action and the notification that must follow it."""

    time: float
    notice: str
    subject: str


def _script(farm, start: float, spare_leaders: bool):
    leaders = {
        name
        for name, daemon in farm.daemons.items()
        for proto in daemon.protocols.values()
        if proto.state is AdapterState.LEADER
    }
    servers = sorted(
        node
        for nodes in farm.domain_nodes.values()
        for node in nodes
        if not (spare_leaders and node in leaders)
    )
    random.Random(SEED).shuffle(servers)
    assert len(servers) >= N_FAULTS
    plan = FaultPlan()
    actions: List[Action] = []
    for i, node in enumerate(servers[:N_FAULTS]):
        at = start + i * SPAN / N_FAULTS
        if i % 2 == 0:
            plan.crash_node(at, node).restart_node(at + REPAIR_AFTER, node)
            actions += [Action(at, "node_failed", node),
                        Action(at + REPAIR_AFTER, "node_recovered", node)]
        else:
            ip = str(farm.hosts[node].adapters[1].ip)
            plan.fail_adapter(at, ip, FAIL_MODES[(i // 2) % len(FAIL_MODES)])
            plan.repair_adapter(at + REPAIR_AFTER, ip)
            actions += [Action(at, "adapter_failed", ip),
                        Action(at + REPAIR_AFTER, "adapter_recovered", ip)]
    vlans = sorted(farm.domain_vlans.values())
    moves = []
    for j in range(N_MOVES):
        at = start + (j + 0.5) * SPAN / N_MOVES
        ip = farm.hosts[farm.spare_nodes[j % len(farm.spare_nodes)]].adapters[1].ip
        moves.append((at, ip, vlans[j % len(vlans)]))
        actions.append(Action(at, "move_completed", str(ip)))
    return plan, moves, actions


def _run(spare_leaders: bool) -> Dict[str, Any]:
    os_params = OSParams.fast()
    farm = build_named_farm(
        "oceano128", seed=SEED, params=CHAOS_PARAMS, os_params=os_params,
        trace=monitor_trace(),
    )
    farm.start()
    assert farm.run_until_stable(timeout=180.0) is not None
    monitor = InvariantMonitor(farm, windows=CheckWindows.from_params(farm.params, os_params))
    monitor.start()
    start = farm.sim.now + 1.0
    plan, moves, actions = _script(farm, start, spare_leaders)
    plan.arm(farm.sim, farm.fabric, farm.hosts)
    for at, ip, vlan in moves:
        farm.sim.schedule_at(at, lambda ip=ip, vlan=vlan: farm.reconfig().move_adapter(ip, vlan))
    farm.sim.run(until=start + SPAN + REPAIR_AFTER + monitor.windows.settle_time)
    monitor.finalize()
    history = farm.bus.history
    unnotified = [
        a for a in actions
        if not any(n.kind == a.notice and n.subject == a.subject and n.time >= a.time
                   for n in history)
    ]
    return {
        "actions": actions,
        "unnotified": unnotified,
        "violations": list(monitor.violations),
        "waived_by": dict(monitor.waived_by),
    }


@pytest.fixture(scope="module")
def leaders_targeted() -> Dict[str, Any]:
    return _run(spare_leaders=False)


@pytest.fixture(scope="module")
def leaders_spared() -> Dict[str, Any]:
    return _run(spare_leaders=True)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 2(a): obligations repaired after their deadline are waived, not judged",
)
def test_the_monitor_reports_a_violation_when_gsc_left_a_failure_unpublished(
    leaders_targeted,
):
    unpublished = [a for a in leaders_targeted["unnotified"] if a.notice.endswith("_failed")]
    assert not unpublished or leaders_targeted["violations"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 2(b): a crashed leader's group loses failures GSC never publishes",
)
def test_gsc_publishes_every_scripted_failure(leaders_targeted):
    assert leaders_targeted["unnotified"] == []


def test_with_leaders_spared_every_action_is_notified_and_nothing_waived(leaders_spared):
    assert len(leaders_spared["actions"]) == 2 * N_FAULTS + N_MOVES
    assert leaders_spared["unnotified"] == []
    assert leaders_spared["waived_by"]["repaired"] == 0
    assert leaders_spared["violations"] == []
