"""Adapter Membership Group views.

An :class:`AMGView` is the committed membership of one group: an ordered
tuple of :class:`~repro.gulfstream.messages.MemberInfo` in *rank order*
(leader first, then descending by the leadership criterion), plus the epoch
stamped by the commit that installed it.

The rank order doubles as the logical heartbeat ring ("the group leader ...
arbitrarily arrange[s] the adapters of the group into a logical ring"): the
arrangement is arbitrary, so using rank order keeps it deterministic and
means every member can derive its neighbours locally from the commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.net.addressing import IPAddress
from repro.gulfstream.messages import MemberInfo

__all__ = ["AMGView", "choose_leader", "rank_members"]


def choose_leader(candidates: Iterable[MemberInfo]) -> MemberInfo:
    """The leadership rule.

    Ordinary AMGs: highest IP wins (§2.1). The administrative AMG restricts
    leadership to nodes flagged eligible (§2.2) — eligibility trumps IP, and
    among eligible adapters the highest IP wins. For groups where no member
    is flagged (every non-admin group) this reduces to plain highest-IP.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("choose_leader needs at least one candidate")
    return max(cands, key=lambda m: (m.admin_eligible, int(m.ip)))


def rank_members(members: Iterable[MemberInfo]) -> Tuple[MemberInfo, ...]:
    """Deterministic rank order: leader first, then by the same criterion.

    Rank 1 (the second-ranked adapter) is the designated successor on
    leader death.
    """
    return tuple(
        sorted(members, key=lambda m: (m.admin_eligible, int(m.ip)), reverse=True)
    )


@dataclass(frozen=True)
class AMGView:
    """One committed group membership."""

    members: Tuple[MemberInfo, ...]
    epoch: int
    #: stable identity for reporting: "<founding leader ip>@<founding
    #: epoch>". It survives recommits (deaths, joins, takeovers) so that
    #: GulfStream Central can correlate reports across leader changes; only
    #: a fresh formation (or a self-promotion) mints a new key.
    group_key: str = ""

    @staticmethod
    def build(
        members: Iterable[MemberInfo], epoch: int, group_key: str = ""
    ) -> "AMGView":
        ranked = rank_members(members)
        if not ranked:
            raise ValueError("a view needs at least one member")
        if not group_key:
            group_key = f"{ranked[0].ip}@{epoch}"
        return AMGView(members=ranked, epoch=epoch, group_key=group_key)

    # ------------------------------------------------------------------
    # membership queries
    # ------------------------------------------------------------------
    @property
    def leader(self) -> MemberInfo:
        return self.members[0]

    @cached_property
    def leader_ip(self) -> IPAddress:
        """Read per received heartbeat: resolved once per (immutable) view."""
        return self.members[0].ip

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def ips(self) -> Tuple[IPAddress, ...]:
        return tuple(m.ip for m in self.members)

    @cached_property
    def ip_set(self) -> FrozenSet[IPAddress]:
        """``ips`` as a set, hashed once per view: every member of the group
        holds this one view object (``Commit.view``), and set algebra between
        two views' sets reuses the stored hashes."""
        return frozenset(self.ips)

    @cached_property
    def _rank_index(self) -> Dict[IPAddress, int]:
        """ip -> rank, computed once per (immutable) view.

        Membership and neighbour lookups sit on the heartbeat hot path —
        every received heartbeat checks ``contains`` — so they must not
        rescan the member tuple.
        """
        return {m.ip: i for i, m in enumerate(self.members)}

    def contains(self, ip: IPAddress) -> bool:
        return ip in self._rank_index

    def member(self, ip: IPAddress) -> Optional[MemberInfo]:
        i = self._rank_index.get(ip)
        return self.members[i] if i is not None else None

    def rank(self, ip: IPAddress) -> int:
        """0 for the leader, 1 for the designated successor, ..."""
        try:
            return self._rank_index[ip]
        except KeyError:
            raise KeyError(f"{ip} not in view") from None

    @property
    def successor(self) -> Optional[MemberInfo]:
        """The second-ranked adapter — takes over if the leader dies."""
        return self.members[1] if len(self.members) > 1 else None

    # ------------------------------------------------------------------
    # ring geometry (§3)
    # ------------------------------------------------------------------
    def neighbors(self, ip: IPAddress) -> Tuple[Optional[IPAddress], Optional[IPAddress]]:
        """``(left, right)`` ring neighbours of ``ip``.

        A singleton has no neighbours; in a pair, left and right coincide.
        """
        n = len(self.members)
        if n <= 1:
            return (None, None)
        i = self.rank(ip)
        left = self.members[(i - 1) % n].ip
        right = self.members[(i + 1) % n].ip
        return (left, right)

    def without(self, ips: Iterable[IPAddress]) -> Tuple[MemberInfo, ...]:
        """Members minus the given IPs (for death recommits)."""
        drop = set(ips)
        return tuple(m for m in self.members if m.ip not in drop)

    def __str__(self) -> str:
        who = ", ".join(str(m.ip) for m in self.members)
        return f"AMG(epoch={self.epoch}, leader={self.leader_ip}, [{who}])"
