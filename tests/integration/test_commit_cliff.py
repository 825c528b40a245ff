"""The formation commit of one large AMG, under the paper-calibrated OS
model (ROADMAP item 1, "A membership commit must finish at any group size").

One VLAN of single-adapter hosts, the highest of them admin-eligible,
discovers itself; the first ``gs.2pc.commit`` is the formation round of the
whole VLAN. Its coordinator sends N − 1 Prepares and arms a bare
``twopc_timeout`` deadline, while every PrepareAck is handled behind the
coordinator's serialized OS queue (1–4 ms each with ``OSParams()``). Once
N × proc_delay passes the timeout, the deadline fires before the acks that
have already arrived are handled, and the round commits only those handled
so far: at 512 hosts a view of the coordinator alone, 511 members dropped.

The 512-host case pins that defect as a strict xfail: it starts passing,
and so must be turned into a plain test, in the change that makes the
deadline judge arrivals rather than handling. Its 300-host twin, below the
cliff, commits every member today and must keep doing so.

The same two farms pin what the defect costs: admin 2PC rounds (each
``gs.2pc.prepare``) per cold discovery. Below the cliff, one round carries
the VLAN to stability; at 512 hosts the dropped members rejoin through
further rounds, the third of them 7.59 sim s in (25 by 30 sim s).
"""

import pytest

from repro.checks import CHAOS_PARAMS
from repro.farm.builder import FarmBuilder
from repro.node.osmodel import OSParams
from repro.sim.trace import Trace

#: the formation round starts ≈ 5.5 sim s in; give it ample room
HORIZON_SIM_S = 30.0


#: admin 2PC rounds a cold discovery may take at any size
MAX_ROUNDS = 2


def _farm(hosts: int, category: str):
    """A started farm of ``hosts`` single-NIC hosts on one VLAN, tracing
    ``category`` only."""
    builder = FarmBuilder(
        seed=1, params=CHAOS_PARAMS, os_params=OSParams(),
        trace=Trace(categories={category}),
    )
    for i in range(hosts):
        builder.add_node(f"node-{i}", [1], admin_eligible=(i == hosts - 1))
    farm = builder.finish()
    farm.start()
    return farm


def _first_commit(hosts: int) -> dict:
    """The data of the first ``gs.2pc.commit`` on a VLAN of ``hosts``."""
    sim = _farm(hosts, "gs.2pc.commit").sim
    while not sim.trace.records and sim.now < HORIZON_SIM_S:
        sim.run(until=sim.now + 0.25)
    assert sim.trace.records, "no commit at all"
    first = sim.trace.records[0]
    assert first.source == f"node-{hosts - 1}/eth0"  # the highest IP coordinates
    return first.data


def test_formation_commit_keeps_every_member_below_the_cliff():
    commit = _first_commit(300)
    assert (commit["reason"], commit["size"], commit["dropped"]) == ("formation", 300, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the 2PC deadline counts handled acks, not arrived ones",
)
def test_formation_commit_keeps_every_member_at_512_hosts():
    commit = _first_commit(512)
    assert commit["reason"] == "formation"
    assert commit["dropped"] == 0


def _rounds_to_stability(hosts: int) -> int:
    """``gs.2pc.prepare`` records on a VLAN of ``hosts`` until GSC declares
    the discovery stable, or up to the first round over ``MAX_ROUNDS``."""
    farm = _farm(hosts, "gs.2pc.prepare")
    sim = farm.sim
    while sim.now < HORIZON_SIM_S and len(sim.trace.records) <= MAX_ROUNDS:
        sim.run(until=sim.now + 0.25)
        gsc = farm.gsc()
        if gsc is not None and gsc.stable_time is not None:
            return len(sim.trace.records)
    assert len(sim.trace.records) > MAX_ROUNDS, "neither stable nor over the bound"
    return len(sim.trace.records)


def test_one_round_carries_a_cold_discovery_below_the_cliff():
    assert _rounds_to_stability(300) == 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: members the deadline drops rejoin through more rounds",
)
def test_a_cold_discovery_takes_few_rounds_at_512_hosts():
    assert _rounds_to_stability(512) <= MAX_ROUNDS
