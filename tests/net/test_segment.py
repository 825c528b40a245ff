"""Segment delivery semantics: multicast fan-out, unicast, islands, load."""

import pytest

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.loss import LinkQuality, PerfectLink
from repro.net.nic import NIC
from repro.sim.engine import Simulator


def make_segment(n=4, quality=None, seed=0):
    sim = Simulator(seed=seed)
    fab = Fabric(sim, default_quality=quality)
    nics = []
    for i in range(n):
        nic = NIC(IPAddress(0x0A000001 + i), f"n{i}", 0)  # 10.0.0.1, 10.0.0.2, ...
        fab.attach(nic, "sw", 1)
        nics.append(nic)
    return sim, fab, nics


def collect(nic):
    inbox = []
    nic.handler = inbox.append
    return inbox


def test_multicast_reaches_all_but_sender():
    sim, fab, nics = make_segment(4)
    boxes = [collect(n) for n in nics]
    nics[0].multicast("hello")
    sim.run()
    assert [len(b) for b in boxes] == [0, 1, 1, 1]
    assert boxes[1][0].payload == "hello"


@pytest.mark.parametrize("n", [4, 256])
def test_one_engine_event_per_arrival_instant(n):
    """On a fixed-latency segment every delivery landing at one instant
    shares one flush event, whatever the fan-out: a round of N multicasts
    and N unicasts costs one event at N = 4 and at N = 256."""
    sim, fab, nics = make_segment(n)
    seg = fab.segments[1]
    assert seg.quality.fixed_latency is not None
    received = [0]

    def on_frame(frame):
        received[0] += 1

    def send_round():
        for i, nic in enumerate(nics):
            nic.multicast("beacon")
            nic.send(nics[(i + 1) % n].ip, "hb")

    for nic in nics:
        nic.handler = on_frame
    send_round()  # arrives at one instant
    sim.schedule(1.0, send_round)  # and again at a second one
    sim.run()
    assert sim.events_executed == 1 + 2  # the scheduled round + one flush per instant
    assert seg.frames_delivered == received[0] == 2 * (n * (n - 1) + n)


def test_unicast_reaches_only_target():
    sim, fab, nics = make_segment(4)
    boxes = [collect(n) for n in nics]
    nics[0].send(nics[2].ip, "direct")
    sim.run()
    assert [len(b) for b in boxes] == [0, 0, 1, 0]


def test_unicast_to_absent_ip_is_silent():
    sim, fab, nics = make_segment(2)
    boxes = [collect(n) for n in nics]
    assert nics[0].send(IPAddress("10.9.9.9"), "void")
    sim.run()
    assert all(len(b) == 0 for b in boxes)
    assert sim.trace.count("net.drop.noroute") == 1


def test_delivery_has_positive_latency():
    sim, fab, nics = make_segment(2)
    box = collect(nics[1])
    nics[0].send(nics[1].ip, "x")
    assert box == []  # not synchronous
    sim.run()
    assert len(box) == 1
    assert sim.now > 0


def test_cross_vlan_isolation():
    """Adapters on different VLANs cannot communicate at all (paper §2)."""
    sim = Simulator()
    fab = Fabric(sim)
    a = NIC(IPAddress("10.0.0.1"), "a", 0)
    b = NIC(IPAddress("10.0.0.2"), "b", 0)
    fab.attach(a, "sw", 1)
    fab.attach(b, "sw", 2)
    box = collect(b)
    a.send(b.ip, "x")
    a.multicast("y")
    sim.run()
    assert box == []


def test_partition_blocks_cross_island_delivery():
    sim, fab, nics = make_segment(4)
    seg = fab.segments[1]
    seg.partition([[nics[0].ip, nics[1].ip]])
    boxes = [collect(n) for n in nics]
    nics[0].multicast("m")
    nics[3].send(nics[0].ip, "u")
    sim.run()
    assert len(boxes[1]) == 1  # same island
    assert len(boxes[2]) == 0 and len(boxes[3]) == 0
    assert len(boxes[0]) == 0  # unicast from other island blocked
    assert seg.partitioned


def test_heal_restores_delivery():
    sim, fab, nics = make_segment(3)
    seg = fab.segments[1]
    seg.partition([[nics[0].ip]])
    seg.heal()
    boxes = [collect(n) for n in nics]
    nics[0].multicast("m")
    sim.run()
    assert len(boxes[1]) == 1 and len(boxes[2]) == 1
    assert not seg.partitioned


def test_unnamed_members_fall_into_last_island():
    sim, fab, nics = make_segment(4)
    seg = fab.segments[1]
    seg.partition([[nics[0].ip]])  # others implicitly island 1
    boxes = [collect(n) for n in nics]
    nics[1].multicast("m")
    sim.run()
    assert len(boxes[2]) == 1 and len(boxes[3]) == 1 and len(boxes[0]) == 0


def test_lossy_segment_drops_some_deliveries():
    sim, fab, nics = make_segment(2, quality=LinkQuality(loss_probability=0.5), seed=3)
    box = collect(nics[1])
    for _ in range(200):
        nics[0].send(nics[1].ip, "x")
    sim.run()
    assert 50 < len(box) < 150
    seg = fab.segments[1]
    assert seg.frames_lost + seg.frames_delivered == 200


def test_loss_is_per_receiver_on_multicast():
    sim, fab, nics = make_segment(5, quality=LinkQuality(loss_probability=0.4), seed=1)
    boxes = [collect(n) for n in nics]
    for _ in range(100):
        nics[0].multicast("m")
    sim.run()
    counts = [len(b) for b in boxes[1:]]
    assert all(30 < c < 90 for c in counts)
    assert len(set(counts)) > 1  # independent draws


def test_counters_and_bytes():
    sim, fab, nics = make_segment(3)
    nics[0].multicast("m", size=100)
    nics[0].send(nics[1].ip, "u", size=50)
    sim.run()
    seg = fab.segments[1]
    assert seg.frames_sent == 2
    assert seg.bytes_sent == 150
    assert seg.frames_delivered == 3  # 2 multicast receivers + 1 unicast


def test_duplicate_ip_on_segment_rejected():
    sim = Simulator()
    fab = Fabric(sim)
    a = NIC(IPAddress("10.0.0.1"), "a", 0)
    fab.attach(a, "sw", 1)
    dup = NIC(IPAddress("10.0.0.1"), "b", 0)
    with pytest.raises(ValueError):
        fab.attach(dup, "sw", 1)


def test_quality_swap_takes_effect_on_the_very_next_frame_both_ways():
    """The chaos campaign degrades a link by assigning ``seg.quality`` and
    heals it by assigning the old model back: nothing may be cached across
    the swap, and a fixed-latency link must leave the segment's stream
    exactly where the lossy one left it."""
    sim, fab, nics = make_segment(3, seed=5)
    seg = fab.segments[1]
    perfect = seg.quality
    assert type(perfect) is PerfectLink
    box = collect(nics[1])
    stream = sim.rng.stream("segment/1")

    def send(n):
        for _ in range(n):
            nics[0].send(nics[1].ip, "u")
            nics[0].multicast("m")
        sim.run()

    untouched = stream.bit_generator.state
    send(5)
    assert len(box) == 10 and seg.frames_lost == 0
    assert stream.bit_generator.state == untouched

    seg.quality = LinkQuality(loss_probability=1.0, latency=0.001, jitter=0.0)
    send(1)
    assert len(box) == 10 and seg.frames_lost == 3  # the unicast and both multicast copies
    drawn = stream.bit_generator.state
    assert drawn != untouched

    seg.quality = perfect
    send(5)
    assert len(box) == 20 and seg.frames_lost == 3
    assert stream.bit_generator.state == drawn
