"""Subgroup heartbeating — the §4.2 scalability extension.

"One interesting alternative is to divide each (large) AMG into several
small subgroups, with all members within one subgroup tightly heartbeating
only each other. ... the group leader ... needs to poll the status of each
subgroup, at a very low frequency, to detect the rare event of a
catastrophic failure of all members in a subgroup."

Members partition the committed view into consecutive rank-order chunks of
``subgroup_size`` and run an ordinary ring *within their chunk*; suspicions
still flow to the (global) AMG leader. The leader additionally polls each
foreign subgroup at ``subgroup_poll_interval``: it probes the subgroup's
members in rank order until one answers; if the whole subgroup is silent it
declares a catastrophic subgroup failure.

The payoff measured by ``benchmarks/bench_heartbeat_load.py``: per-segment
heartbeat traffic stays proportional to n but each adapter's blast radius —
and the leader's ring-maintenance churn after concurrent failures — is
bounded by the subgroup size.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.amg import AMGView
from repro.gulfstream.messages import (
    SIZE_HEARTBEAT, Heartbeat, SubgroupPoll, SubgroupPollAck,
)
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gulfstream.adapter_proto import AdapterProtocol

__all__ = ["SubgroupHeartbeat", "partition_subgroups"]


def partition_subgroups(view: AMGView, size: int) -> List[List[IPAddress]]:
    """Chunk the view's rank order into subgroups of at most ``size``.

    Deterministic, so every member computes the same partition locally from
    the commit — no extra dissemination round is needed.
    """
    if size < 2:
        raise ValueError("subgroup size must be >= 2")
    ips = list(view.ips)
    chunks = [ips[i : i + size] for i in range(0, len(ips), size)]
    # avoid a trailing singleton: it would have nobody to heartbeat with
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-2].extend(chunks.pop())
    return chunks


class SubgroupHeartbeat:
    """Per-adapter engine for the subgroup scheme.

    Exposes the same surface as
    :class:`~repro.gulfstream.heartbeat.RingHeartbeat` (``on_heartbeat``,
    ``stop``, suspicion callbacks) plus poll handling, so the adapter
    protocol can swap engines based on ``GSParams.subgroup_size``.
    """

    def __init__(
        self,
        proto: "AdapterProtocol",
        view: AMGView,
        on_suspect: Callable[[IPAddress], None],
        on_total_silence: Callable[[], None],
        on_subgroup_dead: Optional[Callable[[List[IPAddress]], None]] = None,
    ) -> None:
        self.proto = proto
        self.view = view
        self.on_suspect = on_suspect
        self.on_total_silence = on_total_silence
        self.on_subgroup_dead = on_subgroup_dead
        p = proto.params
        assert p.subgroup_size is not None
        self.subgroups = partition_subgroups(view, p.subgroup_size)
        self.my_subgroup = next(
            i for i, chunk in enumerate(self.subgroups) if proto.ip in chunk
        )
        chunk = self.subgroups[self.my_subgroup]
        idx = chunk.index(proto.ip)
        n = len(chunk)
        if n > 1:
            left = chunk[(idx - 1) % n]
            right = chunk[(idx + 1) % n]
            if p.hb_mode == "bidirectional":
                self.targets: Set[IPAddress] = {left, right}
                self.monitored: Set[IPAddress] = {left, right}
            else:
                self.targets = {right}
                self.monitored = {left}
        else:
            self.targets = set()
            self.monitored = set()
        now = proto.sim.now
        self.last_heard: Dict[IPAddress, float] = {ip: now for ip in self.monitored}
        self._suspect_raised_at: Dict[IPAddress, float] = {}
        self._silence_raised_at: float | None = None
        self.sent = 0
        self.received = 0
        self._timers: List[Timer] = []
        if self.targets:
            rng = proto.sim.rng.stream(f"hb/{proto.nic.name}")
            self._timers.append(
                Timer(
                    proto.sim, p.hb_interval, self._send,
                    initial_delay=float(rng.uniform(0, p.hb_interval)),
                )
            )
            self._timers.append(
                Timer(
                    proto.sim, p.hb_interval, self._check,
                    initial_delay=p.hb_interval * (p.hb_miss_threshold + 0.5),
                )
            )
        # leader-side polling state
        self._is_leader = view.leader_ip == proto.ip
        self._poll_nonce = 0
        #: nonce -> (subgroup index, remaining candidates)
        self._pending_polls: Dict[int, tuple[int, List[IPAddress]]] = {}
        if self._is_leader and len(self.subgroups) > 1:
            self._timers.append(
                Timer(
                    proto.sim, p.subgroup_poll_interval, self._poll_round,
                    initial_delay=p.subgroup_poll_interval,
                )
            )

    # ------------------------------------------------------------------
    # intra-subgroup ring (same logic as RingHeartbeat)
    # ------------------------------------------------------------------
    def _send(self) -> None:
        msg = Heartbeat(sender=self.proto.ip, epoch=self.view.epoch)
        for ip in self.targets:
            self.proto.send(ip, msg, size=SIZE_HEARTBEAT)
            self.sent += 1

    def on_heartbeat(self, src: IPAddress, epoch: int) -> None:
        if src in self.monitored:
            self.last_heard[src] = self.proto.sim.now
            self._suspect_raised_at.pop(src, None)
            self._silence_raised_at = None
            self.received += 1

    def _check(self) -> None:
        p = self.proto.params
        now = self.proto.sim.now
        threshold = p.hb_miss_threshold * p.hb_interval
        resuspect_after = max(2, p.hb_miss_threshold) * p.hb_interval * 3
        for ip in self.monitored:
            silent_for = now - self.last_heard[ip]
            if silent_for <= threshold:
                continue
            raised = self._suspect_raised_at.get(ip)
            if raised is None or now - raised >= resuspect_after:
                self._suspect_raised_at[ip] = now
                self.proto.trace(
                    "gs.hb.suspect", neighbor=str(ip), silent=round(silent_for, 3),
                    subgroup=self.my_subgroup,
                )
                self.on_suspect(ip)
        if self.monitored and all(
            now - t > p.orphan_timeout for t in self.last_heard.values()
        ):
            # re-raise periodically while the silence persists, so a
            # deferred reaction (sick adapter, leader still reachable) gets
            # re-evaluated against live state rather than a stale snapshot
            if (
                self._silence_raised_at is None
                or now - self._silence_raised_at >= p.orphan_timeout
            ):
                self._silence_raised_at = now
                self.on_total_silence()

    # ------------------------------------------------------------------
    # leader-side subgroup polling
    # ------------------------------------------------------------------
    def _poll_round(self) -> None:
        """Kick one low-frequency poll at every foreign subgroup."""
        for i in range(len(self.subgroups)):
            if i != self.my_subgroup:
                self._poll_subgroup(i, list(self.subgroups[i]))

    def _poll_subgroup(self, index: int, candidates: List[IPAddress]) -> None:
        if not candidates:
            # everyone silent: catastrophic subgroup failure (§4.2)
            self.proto.trace("gs.subgroup.dead", subgroup=index)
            if self.on_subgroup_dead is not None:
                self.on_subgroup_dead(list(self.subgroups[index]))
            return
        target = candidates[0]
        self._poll_nonce += 1
        nonce = self._poll_nonce
        self._pending_polls[nonce] = (index, candidates[1:])
        self.proto.send(
            target,
            SubgroupPoll(sender=self.proto.ip, subgroup=index, nonce=nonce),
        )
        self.proto.sim.schedule(self.proto.params.probe_timeout, self._poll_timeout, nonce)

    def on_poll(self, msg: SubgroupPoll) -> None:
        """A delegate answers the leader's poll."""
        self.proto.send(
            msg.sender,
            SubgroupPollAck(sender=self.proto.ip, subgroup=msg.subgroup, nonce=msg.nonce),
        )

    def on_poll_ack(self, msg: SubgroupPollAck) -> None:
        self._pending_polls.pop(msg.nonce, None)

    def _poll_timeout(self, nonce: int) -> None:
        pending = self._pending_polls.pop(nonce, None)
        if pending is None:
            return
        index, rest = pending
        self._poll_subgroup(index, rest)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        for t in self._timers:
            t.cancel()
        self._pending_polls.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SubgroupHeartbeat({self.proto.nic.name}, subgroup={self.my_subgroup}/"
            f"{len(self.subgroups)})"
        )
