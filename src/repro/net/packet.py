"""Network frames.

A :class:`Frame` is the unit the fabric delivers: source/destination
addresses, an opaque payload (a protocol message object), and a nominal size
in bytes used by the load and bandwidth accounting. Frames are immutable by
convention — the same object may be handed to many receivers on a multicast.
"""

from __future__ import annotations

from typing import Any, Union

from repro.net.addressing import IPAddress, MULTICAST, _Multicast

__all__ = ["Frame"]


class Frame:
    """One message on the wire: a value, equal to any frame with its fields."""

    __slots__ = ("src", "dst", "payload", "size", "is_multicast")

    def __init__(
        self, src: IPAddress, dst: Union[IPAddress, _Multicast], payload: Any, size: int = 64
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.is_multicast = dst is MULTICAST  # decided once, read on every transmit

    def _key(self) -> tuple:
        return (self.src, self.dst, self.payload, self.size)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is Frame else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Frame {self.src}->{self.dst} {type(self.payload).__name__} ({self.size}B)"
