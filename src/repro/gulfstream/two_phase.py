"""Two-phase commit for membership changes.

"All changes to AMG membership such as joins, merges, and deaths are
initiated by the AMG leader and are done using a two-phase commit protocol"
(§2.1). The commit is what makes the rank order — and therefore the
heartbeat ring and the takeover succession — common knowledge.

The coordinator is deliberately forgiving: members that fail to acknowledge
the Prepare by the deadline are *dropped from the committed view* rather
than blocking it. A blocked formation would leave the whole group without
heartbeating; a dropped live member self-heals through the orphan →
singleton → merge path. Members that nack with a higher current epoch cause
one retry at a higher epoch (they know something the coordinator missed,
e.g. a concurrent merge).

The deadline judges arrivals, not handling: an ack that reached the
coordinator's NIC in time but still waits in its daemon's serialized queue
is counted, by resolving once more when that queue is drained.

The paper notes the prototype used point-to-point messages here and that
this is one component of the measured δ overhead; we model that cost through
the sender's serialized OS handling plus one frame per member per phase.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.amg import AMGView, rank_members
from repro.gulfstream.messages import (
    Commit, MemberInfo, Prepare, PrepareAck, membership_msg_size,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.adapter_proto import AdapterProtocol

__all__ = ["CommitCoordinator"]


class CommitCoordinator:
    """Drives one membership change to a committed view.

    Parameters
    ----------
    proto:
        The coordinating adapter's protocol instance (provides I/O, clock,
        parameters).
    members:
        Proposed membership; must include the coordinator itself.
    epoch:
        Proposed epoch (the coordinator's best guess at "higher than
        everyone's current").
    reason:
        formation | join | merge | death | takeover — for tracing and for
        member-side acceptance context.
    on_done:
        Called exactly once with the committed :class:`AMGView`.
    """

    MAX_RETRIES = 2

    def __init__(
        self,
        proto: "AdapterProtocol",
        members: Iterable[MemberInfo],
        epoch: int,
        reason: str,
        on_done: Callable[[AMGView], None],
        group_key: str = "",
    ) -> None:
        self.proto = proto
        self.members = rank_members(members)
        self.epoch = epoch
        self.reason = reason
        # a fresh formation mints a new group identity; recommits keep it
        self.group_key = group_key or f"{self.members[0].ip}@{epoch}"
        #: everyone originally proposed, before retry rounds prune silence —
        #: _finish compares this against the coordinator's prior view
        self._proposed = {m.ip for m in self.members}
        self.on_done = on_done
        self.acks: Dict[IPAddress, bool] = {}
        self.nack_epochs: list[int] = []
        self.retries = 0
        self.finished = False
        self._deadline = None
        if not any(m.ip == proto.ip for m in self.members):
            raise ValueError("coordinator must be in the proposed membership")
        self._start_round()

    # ------------------------------------------------------------------
    def _start_round(self) -> None:
        proto = self.proto
        self.acks.clear()
        self.nack_epochs.clear()
        others = [m for m in self.members if m.ip != proto.ip]
        self._expected = len(others)
        proto.trace(
            "gs.2pc.prepare",
            reason=self.reason,
            epoch=self.epoch,
            size=len(self.members),
            retry=self.retries,
        )
        if not others:
            # singleton change: nothing to agree with
            self._finish()
            return
        msg = Prepare(
            coordinator=proto.ip,
            epoch=self.epoch,
            members=self.members,
            reason=self.reason,
            group_key=self.group_key,
        )
        size = membership_msg_size(len(self.members))
        for m in others:
            proto.send(m.ip, msg, size=size)
        self._deadline = proto.sim.schedule(proto.params.twopc_timeout, self._on_timeout)

    # ------------------------------------------------------------------
    def on_prepare_ack(self, ack: PrepareAck) -> None:
        """Feed a PrepareAck for this coordinator/epoch."""
        if self.finished or ack.epoch != self.epoch:
            return
        self.acks[ack.sender] = ack.ok
        if not ack.ok:
            self.nack_epochs.append(ack.current_epoch)
        if len(self.acks) >= self._expected:
            self._resolve()

    def _on_timeout(self) -> None:
        if self.finished:
            return
        idle = self.proto.os.busy_until()
        if idle > self.proto.sim.now:
            # acks that reached the NIC by the deadline may still wait behind
            # the daemon's backlog: judge the round once that is drained (the
            # round is re-armed at most once: this deadline does not recur)
            self._deadline = self.proto.sim.schedule_at(idle, self._resolve)
        else:
            self._resolve()

    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if self.nack_epochs and self.retries < self.MAX_RETRIES:
            # someone is ahead of us; retry once at a higher epoch with the
            # same membership (minus anyone who went silent)
            self.retries += 1
            self.epoch = max(self.nack_epochs + [self.epoch]) + 1
            silent = [
                m for m in self.members
                if m.ip != self.proto.ip and m.ip not in self.acks
            ]
            if silent:
                keep = {m.ip for m in self.members} - {m.ip for m in silent}
                self.members = rank_members(
                    m for m in self.members if m.ip in keep
                )
            self._start_round()
            return
        self._finish()

    def _finish(self) -> None:
        proto = self.proto
        self.finished = True
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        # the committed view: coordinator plus everyone who positively acked
        committed = [
            m
            for m in self.members
            if m.ip == proto.ip or self.acks.get(m.ip) is True
        ]
        dropped = len(self.members) - len(committed)
        key = self.group_key
        old = getattr(proto, "view", None)
        if old is not None and key == old.group_key and old.size > 1:
            committed_ips = {m.ip for m in committed}
            lost_old = {
                ip for ip in old.ips
                if ip != proto.ip and ip in self._proposed and ip not in committed_ips
            }
            if 2 * len(lost_old) > old.size - 1:
                # The majority of my previous group was proposed but went
                # silent in one change. §3.1's likelier reading is that
                # *this* adapter left them — a silent VLAN move or the
                # minority side of a partition — not that they all died at
                # once. They live on under the old group identity with
                # their own takeover lineage; committing this view under
                # the same key would leave two leaders fighting over one
                # group at GulfStream Central, with the losers' adapters
                # permanently marked failed. Mint a fresh identity instead
                # (verified deaths are removed from the *proposal* before
                # the round starts, so they never trip this).
                key = ""
                proto.trace("gs.group.rekey", old_key=old.group_key)
        view = AMGView.build(committed, self.epoch, key)
        msg = Commit.of_view(view, proto.ip, self.reason)
        size = membership_msg_size(len(view.members))
        for m in view.members:
            if m.ip != proto.ip:
                proto.send(m.ip, msg, size=size)
        proto.trace(
            "gs.2pc.commit",
            reason=self.reason,
            epoch=self.epoch,
            size=view.size,
            dropped=dropped,
        )
        self.on_done(view)

    def cancel(self) -> None:
        """Abandon the round (e.g. superseded by a higher coordinator)."""
        self.finished = True
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
