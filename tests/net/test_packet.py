"""Frame is a value: field-wise identity, one multicast decision, picklable."""

import pickle

from repro.gulfstream.messages import Heartbeat
from repro.net.addressing import IPAddress, MULTICAST
from repro.net.packet import Frame

A, B = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")


def test_frames_with_equal_fields_are_equal_and_hash_alike():
    hb = Heartbeat(sender=A, epoch=3)
    one, two = Frame(A, B, hb, 32), Frame(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), hb, 32)
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    for other in (Frame(B, B, hb, 32), Frame(A, A, hb, 32), Frame(A, B, "x", 32), Frame(A, B, hb)):
        assert one != other
    assert one != (A, B, hb, 32)


def test_keyword_construction_and_default_size():
    frame = Frame(src=A, dst=B, payload="p")
    assert (frame.src, frame.dst, frame.payload, frame.size) == (A, B, "p", 64)
    assert frame == Frame(A, B, "p", size=64)


def test_is_multicast_is_decided_by_the_destination():
    assert Frame(A, MULTICAST, "beacon").is_multicast is True
    assert Frame(A, B, "hb").is_multicast is False


def test_pickle_round_trip():
    for frame in (Frame(A, B, Heartbeat(sender=A, epoch=7), 48), Frame(A, MULTICAST, "beacon")):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(frame, protocol=protocol))
            assert clone == frame and clone is not frame
            assert clone.is_multicast is frame.is_multicast
            assert (clone.dst is MULTICAST) is frame.is_multicast
