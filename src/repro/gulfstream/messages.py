"""Wire messages.

All protocol traffic is a frozen dataclass carried as the payload of a
:class:`~repro.net.packet.Frame`. Frozen means a multicast can hand one
object to every receiver safely, and tests can assert on equality.

Naming follows the paper where it names things (BEACON, heartbeat, the
two-phase commit); the rest are the obvious completions a real
implementation needs (acks, probes, merge negotiation, the reports flowing
to GulfStream Central).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, FrozenSet, Tuple, TYPE_CHECKING

from repro.net.addressing import IPAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.amg import AMGView

__all__ = [
    "Beacon",
    "GroupHint",
    "Commit",
    "Heartbeat",
    "MemberInfo",
    "MembershipReport",
    "MergeInfo",
    "MergeRequest",
    "Prepare",
    "PrepareAck",
    "ReportAck",
    "Probe",
    "ProbeAck",
    "SelfFault",
    "SubgroupPoll",
    "SubgroupPollAck",
    "Suspect",
    "SuspectAck",
]

# -- wire sizes for network-load accounting (bytes) ------------------------
SIZE_BEACON = 48
SIZE_HEARTBEAT = 40
#: every other protocol message
SIZE_CONTROL = 64
#: per-member increment for membership-bearing messages
SIZE_PER_MEMBER = 12


def membership_msg_size(n_members: int) -> int:
    """Wire size of a membership-bearing message (Prepare/Commit/report)."""
    return SIZE_CONTROL + SIZE_PER_MEMBER * n_members


@dataclass(frozen=True, order=True)
class MemberInfo:
    """Identity of one adapter as carried in beacons and commits.

    Ordering is by IP (descending IP = group rank order); the eligibility
    flag participates in admin-AMG leader choice (§2.2: eligible nodes
    augment their BEACONs with a role flag).
    """

    ip: IPAddress
    node: str = field(compare=False)
    adapter_index: int = field(compare=False)
    admin_eligible: bool = field(default=False, compare=False)


def _wire_state(msg: Any) -> Dict[str, Any]:
    """Pickle the wire fields only: whoever unpickles derives its own caches."""
    return {name: msg.__dict__[name] for name in msg.__dataclass_fields__}


@dataclass(frozen=True)
class Beacon:
    """Multicast self-identification on the well-known group (§2.1)."""

    # a non-leader only ever collects or ignores a beacon, so a segment may
    # log a beacon multicast once for them (docs/PROTOCOL.md §8)
    lazy_multicast = True

    info: MemberInfo
    #: set once the sender leads an AMG; merge logic keys off this
    is_leader: bool = False
    #: the sender's current group epoch (0 before any formation)
    epoch: int = 0
    #: current group size, for trace/diagnostics only
    group_size: int = 1


@dataclass(frozen=True)
class Prepare:
    """Phase 1 of the membership two-phase commit."""

    coordinator: IPAddress
    epoch: int
    members: Tuple[MemberInfo, ...]
    #: why this commit is happening: formation | join | merge | death | takeover
    reason: str = "formation"
    #: stable group identity ("<founding leader ip>@<founding epoch>");
    #: survives leader changes so GulfStream Central can match removal and
    #: addition reports across recommits
    group_key: str = ""

    __getstate__ = _wire_state

    @cached_property
    def member_ips(self) -> FrozenSet[IPAddress]:
        """Who is proposed: hashed once per ``Prepare``, not per receiver."""
        return frozenset(m.ip for m in self.members)


@dataclass(frozen=True)
class PrepareAck:
    """Phase 1 response. ``ok=False`` carries the responder's epoch so the
    coordinator can retry with a higher one."""

    sender: IPAddress
    coordinator: IPAddress
    epoch: int
    ok: bool
    current_epoch: int = 0


@dataclass(frozen=True)
class Commit:
    """Phase 2: install the new view. Carries the full membership so the
    rank order (and thus the heartbeat ring and the takeover order) is known
    by all members — 'the two phase commit ... is also used to propagate
    membership information so that this order is known by all members'."""

    coordinator: IPAddress
    epoch: int
    members: Tuple[MemberInfo, ...]
    reason: str = "formation"
    #: stable group identity, see :class:`Prepare`
    group_key: str = ""

    __getstate__ = _wire_state

    @classmethod
    def of_view(cls, view: "AMGView", coordinator: IPAddress, reason: str) -> "Commit":
        """The commit that installs ``view``: every member this object
        reaches holds that same immutable view, not a rebuilt copy."""
        msg = cls(coordinator, view.epoch, view.members, reason, view.group_key)
        msg.__dict__["view"] = view
        return msg

    @cached_property
    def view(self) -> "AMGView":
        """The view these fields describe, built once per ``Commit``."""
        from repro.gulfstream.amg import AMGView  # amg imports this module

        return AMGView.build(self.members, self.epoch, self.group_key)


@dataclass(frozen=True)
class Heartbeat:
    """Ring heartbeat (§3)."""

    sender: IPAddress
    epoch: int


@dataclass(frozen=True)
class Suspect:
    """Member → leader: my neighbour looks dead. Acked, retried."""

    reporter: IPAddress
    suspect: IPAddress
    epoch: int
    #: monotonically increasing per-reporter id for ack matching
    seq: int = 0


@dataclass(frozen=True)
class SuspectAck:
    """Leader → reporter: suspicion received."""

    sender: IPAddress
    reporter: IPAddress
    seq: int


@dataclass(frozen=True)
class SelfFault:
    """Member → leader: my own loopback test failed; remove me rather than
    letting me file false reports against my neighbours (§3)."""

    reporter: IPAddress
    epoch: int


@dataclass(frozen=True)
class Probe:
    """Direct liveness check (leader verification / takeover verification)."""

    sender: IPAddress
    nonce: int


@dataclass(frozen=True)
class ProbeAck:
    """Reply to a probe."""

    sender: IPAddress
    nonce: int


@dataclass(frozen=True)
class GroupHint:
    """Reply to a misdirected Suspect: tells the reporter where it stands.

    ``member=False`` means "you are not in my group" — the reporter was
    dropped (e.g. its PrepareAck was lost during a recommit) and should
    self-promote and rejoin through the beacon/merge path. The paper's
    footnote admits the prototype "may execute [the full discovery
    protocol] if group members become confused about their membership";
    this hint is the mechanism that makes that recovery deterministic.
    """

    sender: IPAddress
    leader: IPAddress
    epoch: int
    member: bool


@dataclass(frozen=True)
class MergeRequest:
    """Winning leader → losing leader: send me your membership (§2.1:
    'Merging AMGs are led by the AMG leader with the highest IP address')."""

    sender: IPAddress
    epoch: int


@dataclass(frozen=True)
class MergeInfo:
    """Losing leader → winning leader: my members, for the merge commit."""

    sender: IPAddress
    epoch: int
    members: Tuple[MemberInfo, ...]


@dataclass(frozen=True)
class SubgroupPoll:
    """Leader → subgroup delegate: low-frequency liveness poll (§4.2
    subgroup extension)."""

    sender: IPAddress
    subgroup: int
    nonce: int


@dataclass(frozen=True)
class SubgroupPollAck:
    """Subgroup delegate → leader."""

    sender: IPAddress
    subgroup: int
    nonce: int


@dataclass(frozen=True)
class ReportAck:
    """Aggregator -> leader: report received (the leader falls back to a
    direct GSC report if this never arrives — a dead aggregator must not
    swallow failure reports)."""

    sender: IPAddress
    seq: int


@dataclass(frozen=True)
class MembershipReport:
    """AMG leader → GulfStream Central through the admin adapter (Fig 3).

    ``kind`` is one of:

    * ``"full"`` — complete membership (initial stability, GSC failover
      resync);
    * ``"delta"`` — incremental change; only ``added``/``removed`` matter.

    'Group leaders typically need only report changes in group membership,
    not the entire membership' (§2.2).
    """

    leader: IPAddress
    #: identity of the reporting group: founding leader's view of itself
    group_key: str
    epoch: int
    kind: str
    members: Tuple[MemberInfo, ...] = ()
    added: Tuple[MemberInfo, ...] = ()
    removed: Tuple[IPAddress, ...] = ()
    #: leader's own node, so GSC can route replies/debug
    node: str = ""
    stable: bool = False
    #: per-daemon sequence number for the acked leader->aggregator hop
    seq: int = 0
