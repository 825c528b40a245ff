"""What a beacon multicast costs, pinned with counts (docs/PROTOCOL.md §8,
"One record per multicast").

A cold discovery of ``oceano32`` (every link loss-free and fixed-latency,
one data adapter deaf from the start, so its segment has an eager member)
runs with counting wrappers on the delivery path. Counts repeat exactly for
a seed, so each pin states what the record path must keep: one log record
per beacon multicast, a per-receiver delivery only for the few eager
members, no ``AdapterProtocol.receive`` at all for a beacon at a non-leader,
and ``net.nic.frames_received`` exact whenever a sample is taken — also
while records are still unbilled. Every pin fails on the code before the
record path, which delivered a beacon to each receiver.
"""

from collections import Counter

import pytest

from repro.checks import CHAOS_PARAMS, build_named_farm, monitor_trace
from repro.gulfstream.adapter_proto import AdapterProtocol, AdapterState
from repro.gulfstream.messages import Beacon
from repro.net.loss import PerfectLink
from repro.net.nic import NIC, NicState
from repro.net.segment import Segment
from repro.node.osmodel import OSParams

from tests.integration.test_lazy_beacon_equivalence import _use_eager_oracle

#: mid beacon phase: beacons of two rounds logged, none billed yet
MID_RUN_SIM_S = 2.0


def _build():
    return build_named_farm(
        "oceano32", seed=1, params=CHAOS_PARAMS, os_params=OSParams.fast(),
        trace=monitor_trace(),
    )


def _received(farm):
    farm.sim.metrics.collect()
    return farm.sim.metrics.get("net.nic.frames_received").value


def _unbilled(farm):
    return sum(
        seg.logged - nic.cursor
        for seg in farm.fabric.segments.values()
        for nic in seg._lazy
    )


@pytest.fixture(scope="module")
def discovery():
    counts = Counter()
    deliver, deliver_at = NIC.deliver, NIC.deliver_at
    receive, record = AdapterProtocol.receive, Segment._deliver_record

    def counted_deliver(nic, frame):
        counts["beacon_delivers"] += type(frame.payload) is Beacon
        deliver(nic, frame)

    def counted_deliver_at(nic, frame, seq):
        if nic.sink is not None and nic.can_receive:  # else it goes through deliver
            counts["beacon_delivers"] += type(frame.payload) is Beacon
        deliver_at(nic, frame, seq)

    def counted_receive(proto, frame):
        if type(frame.payload) is Beacon and proto.state is not AdapterState.LEADER:
            counts["non_leader_receives"] += 1
        receive(proto, frame)

    def counted_record(seg, frame, snap, sender):
        counts["eager_receivers"] += len(seg._eager) - (sender in seg._eager)
        record(seg, frame, snap, sender)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NIC, "deliver", counted_deliver)
        patch.setattr(NIC, "deliver_at", counted_deliver_at)
        patch.setattr(AdapterProtocol, "receive", counted_receive)
        patch.setattr(Segment, "_deliver_record", counted_record)
        farm = _build()
        farm.hosts["bravo-fe-1"].adapters[1].fail(NicState.FAIL_RECV)
        farm.start()
        farm.sim.run(until=MID_RUN_SIM_S)
        unbilled = _unbilled(farm)
        received = _received(farm)
        assert farm.run_until_stable(timeout=180.0) is not None
    return {"farm": farm, "counts": counts, "unbilled": unbilled, "mid_received": received}


def test_discovery_runs_on_fixed_latency_links(discovery):
    farm = discovery["farm"]
    assert len(farm.fabric.nics) == 68
    assert all(type(seg.quality) is PerfectLink for seg in farm.fabric.segments.values())


def test_one_record_per_beacon_multicast(discovery):
    farm = discovery["farm"]
    logged = sum(seg.logged for seg in farm.fabric.segments.values())
    beacons = farm.sim.metrics.get("gs.beacon.sent").value
    assert beacons > 200
    assert logged == beacons


def test_beacons_are_delivered_only_to_eager_receivers(discovery):
    """Leaders, adapters that cannot receive and adapters without a sink get
    a delivery; everyone else's beacons were billed from the log. Here that
    is the deaf adapter, once per beacon on its segment (the code before
    delivered every beacon to every member)."""
    counts = discovery["counts"]
    farm = discovery["farm"]
    delivered = sum(seg.frames_delivered for seg in farm.fabric.segments.values())
    assert 0 < counts["beacon_delivers"] <= counts["eager_receivers"]
    # the deaf adapter dropped each of them (and whatever unicast reached it)
    assert farm.hosts["bravo-fe-1"].adapters[1].recv_drops >= counts["beacon_delivers"]
    assert 20 * counts["beacon_delivers"] < delivered


def test_no_receive_call_for_a_beacon_at_a_non_leader(discovery):
    assert discovery["counts"]["non_leader_receives"] == 0


def test_frames_received_is_exact_mid_run(discovery):
    """A metrics collect while records are still unbilled reads what the
    per-receiver oracle reads at the same instant."""
    assert discovery["unbilled"] > 100
    with pytest.MonkeyPatch.context() as patch:
        _use_eager_oracle(patch.setattr)
        farm = _build()
        farm.hosts["bravo-fe-1"].adapters[1].fail(NicState.FAIL_RECV)
        farm.start()
        farm.sim.run(until=MID_RUN_SIM_S)
        assert _unbilled(farm) == 0
        assert discovery["mid_received"] == _received(farm) > 0
