"""The cross-shard event channel.

Cut segments (see :mod:`repro.sim.shard.partition`) do not deliver to
remote members directly; they hand the frame to their island's
:class:`ShardGateway`, which stamps it into a :class:`CutMessage` with a
delivery time of ``now + lookahead``. The coordinator collects every
island's outbox at the epoch barrier and routes the messages to their
destination islands, where they are injected at the start of the next
epoch.

Determinism discipline — the same ``(time, priority, seq)`` idea the
event queue uses, lifted to the channel:

* ``seq`` is a per-island monotonic counter over *all* messages that
  island ever sends, so two messages from one island can never tie;
* the destination island sorts its merged inbox by
  ``(deliver_time, src_island, seq)`` before scheduling, so the
  injection order is a pure function of the messages themselves, not of
  worker layout or arrival order.

A :class:`CutMessage` and everything it carries is an immutable value:
it travels through the coordinator as its pickle, and the receiving
island must not be able to tell it from the object that was sent.
"""

from __future__ import annotations

from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.packet import Frame

__all__ = ["CutMessage", "ShardGateway", "merge_inbox"]


class CutMessage(NamedTuple):
    """One timestamped cross-cut frame; its first three fields are the
    merge key, so messages order as the tuples they are."""

    deliver_time: float
    src_island: int
    #: per-source-island monotonic sequence number (unique per island)
    seq: int
    dst_island: int
    vlan: int
    #: name of the switch the sender's adapter sits on, for the arrival
    #: side's trunk-connectivity check (None if the sender is unported)
    src_switch: Optional[str]
    frame: Frame

    @property
    def merge_key(self) -> Tuple[float, int, int]:
        return self[:3]


def merge_inbox(messages: Iterable[CutMessage]) -> List[CutMessage]:
    """Deterministically order one island's epoch inbox: by merge key —
    ``(src_island, seq)`` is unique, so no comparison reads past it."""
    return sorted(messages)


class ShardGateway:
    """One island's outbound side of the channel.

    Installed on every cut :class:`~repro.net.segment.Segment` of the
    island; drained by the worker at each epoch barrier.
    """

    def __init__(self, island_id: int, lookahead: float, sim: Any) -> None:
        self.island_id = island_id
        self.lookahead = lookahead
        self.sim = sim
        self.outbox: List[CutMessage] = []
        self._seq = 0
        #: total messages ever sent (monotonic; for result accounting)
        self.sent = 0

    def send(self, vlan: int, frame: Frame, src_switch: Optional[str], dst_island: int) -> None:
        """Queue ``frame`` for delivery in ``dst_island``'s next epoch."""
        self.outbox.append(
            CutMessage(
                self.sim.now + self.lookahead, self.island_id, self._seq,
                dst_island, vlan, src_switch, frame,
            )
        )
        self._seq += 1
        self.sent += 1

    def send_multi(
        self, vlan: int, frame: Frame, src_switch: Optional[str], dst_islands: Sequence[int]
    ) -> None:
        """One copy per destination island (multicast fan-out across the cut)."""
        for island in dst_islands:
            self.send(vlan, frame, src_switch, island)

    def drain(self) -> List[CutMessage]:
        """Take (and clear) the epoch's outbox."""
        out, self.outbox = self.outbox, []
        return out
