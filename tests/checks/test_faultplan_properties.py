"""Property-based tests for :class:`FaultPlan`: firing order, idempotent
arming, and fail/repair idempotence against a real fabric."""

from hypothesis import given, settings, strategies as st

from repro.net.nic import NicState
from repro.node.faults import FaultPlan
from repro.sim.engine import Simulator
from repro.net.addressing import IPAddress

from tests.conftest import single_segment


class _StubHost:
    """Records crash/restart applications with their simulated times."""

    def __init__(self, name, sim, log):
        self.name = name
        self.sim = sim
        self.log = log
        self.crashed = False

    def crash(self):
        self.crashed = True
        self.log.append((self.sim.now, "crash_node", self.name))

    def restart(self):
        self.crashed = False
        self.log.append((self.sim.now, "restart_node", self.name))


# action times on a 0.5s lattice so the run horizon (offset by 0.25) never
# coincides with an action and the fired/pending split is unambiguous
action_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=100).map(lambda k: k * 0.5),
        st.sampled_from(["crash_node", "restart_node"]),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=30,
)


def _build(actions, sim, log):
    hosts = {f"h{i}": _StubHost(f"h{i}", sim, log) for i in range(3)}
    plan = FaultPlan()
    for time, kind, idx in actions:
        if kind == "crash_node":
            plan.crash_node(time, f"h{idx}")
        else:
            plan.restart_node(time, f"h{idx}")
    return plan, hosts


@given(action_lists)
def test_actions_fire_in_time_order_and_exactly_once(actions):
    sim = Simulator(seed=0)
    log = []
    plan, hosts = _build(actions, sim, log)
    plan.arm(sim, None, hosts)
    sim.run(until=60.0)
    assert len(log) == len(actions), "every action fires exactly once"
    times = [t for t, _, _ in log]
    assert times == sorted(times), "actions fire in schedule order"
    assert sorted(log) == sorted(
        (time, kind, f"h{idx}") for time, kind, idx in actions
    )


@given(action_lists)
def test_rearming_same_simulator_is_a_noop(actions):
    sim = Simulator(seed=0)
    log = []
    plan, hosts = _build(actions, sim, log)
    plan.arm(sim, None, hosts)
    plan.arm(sim, None, hosts)  # idempotent: no double-fire
    sim.run(until=60.0)
    assert len(log) == len(actions)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(
                [NicState.FAIL_SEND, NicState.FAIL_RECV, NicState.FAIL_FULL]
            ).map(lambda m: ("fail", m)),
            st.just(("repair", None)),
        ),
        min_size=1, max_size=8,
    )
)
def test_fail_repair_sequences_are_idempotent_on_a_real_nic(ops):
    """Any fail/repair interleaving applies cleanly; the final NIC state is
    decided by the last action alone, and a redundant repair is a no-op."""
    sim = Simulator(seed=1)
    fab, hosts = single_segment(sim, 2)
    ip = "10.0.0.1"
    plan = FaultPlan()
    for i, (op, mode) in enumerate(ops):
        t = (i + 1) * 1.0
        if op == "fail":
            plan.fail_adapter(t, ip, mode)
        else:
            plan.repair_adapter(t, ip)
    # a trailing double-repair must be harmless whatever came before
    plan.repair_adapter(len(ops) + 1.0, ip)
    plan.repair_adapter(len(ops) + 2.0, ip)
    plan.arm(sim, fab, {h.name: h for h in hosts})
    sim.run(until=len(ops) + 5.0)
    assert fab.nics[IPAddress(ip)].state is NicState.OK
