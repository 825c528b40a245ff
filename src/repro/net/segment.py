"""Broadcast segments — one per VLAN.

A :class:`Segment` is the delivery engine for one broadcast domain. It keeps
the set of attached adapters, applies the link-quality model independently
per receiver (a multicast can reach some members and miss others), and
supports *partitioning* — the paper's AMG-merge logic exists precisely
because network partitions can form and heal, leaving independently formed
groups that must merge.

A multicast on a healthy, loss-free fixed-latency segment whose payload says
``lazy_multicast`` (receivers that are not eager only ever collect or ignore
it) is not delivered per receiver: it is logged once, at its arrival instant,
with one block of schedule seqs, and each lazy member's host bills it later
(docs/PROTOCOL.md §8, "One record per multicast").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.net.addressing import IPAddress
from repro.net.loss import LinkQuality, PerfectLink
from repro.net.packet import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.fabric import Fabric
    from repro.net.nic import NIC

__all__ = ["Segment"]


class _Fanout:
    """A multicast in a flush batch, standing where its per-receiver
    deliveries would: the flush hands it the frame like any receiver."""

    __slots__ = ("segment", "snapshot", "sender")

    def __init__(self, segment: "Segment", snapshot: Dict["NIC", int], sender: "NIC") -> None:
        self.segment = segment
        self.snapshot = snapshot
        self.sender = sender

    def deliver(self, frame: Frame) -> None:
        self.segment._deliver_record(frame, self.snapshot, self.sender)


class Segment:
    """One VLAN's broadcast domain.

    Parameters
    ----------
    fabric:
        Owning fabric (provides the simulator and trace).
    vlan:
        VLAN id this segment realizes.
    quality:
        Link-quality model applied per delivery. Defaults to a perfect link.
    """

    #: records the multicast log may gain before the ones every lazy member
    #: has taken are dropped (it empties by itself whenever nobody lags)
    LOG_TRIM = 64

    def __init__(self, fabric: "Fabric", vlan: int, quality: Optional[LinkQuality] = None) -> None:
        self.fabric = fabric
        self.vlan = vlan
        self.quality = quality if quality is not None else PerfectLink()
        self.members: Dict[IPAddress, "NIC"] = {}
        # islands: None means unpartitioned; otherwise ip -> island id, and
        # delivery only happens within an island
        self._islands: Optional[Dict[IPAddress, int]] = None
        # per-segment RNG stream, resolved once (stream lookup by name costs
        # an f-string + dict probe per frame otherwise)
        self._rng = None
        # delivery batching: deliveries landing at the same simulated instant
        # share one aggregate flush event instead of one event each, so a
        # fixed-latency multicast to N members costs one queue entry, not N.
        self._pending: Dict[float, List[Tuple[Any, Frame]]] = {}
        # one record per multicast: ``(when, seq base, payload, snapshot,
        # sender)``; the log holds the newest records, the last one
        # being record ``logged - 1`` of the segment's life. A member's slot
        # in the block is ``base +`` its position in the snapshot ({member:
        # position}, built once per membership, lazily).
        self._log: List[tuple] = []
        #: records logged so far: a lazy member whose cursor is here is done
        self.logged = 0
        self._trim_at = self.LOG_TRIM
        # (record, lazy member) pairs not taken yet: at zero the log empties
        self._untaken = 0
        self._snapshot: Optional[Dict["NIC", int]] = None
        # members taking records lazily (their cursor is set) and the rest,
        # which get a delivery per multicast
        self._lazy: Dict["NIC", None] = {}
        self._eager: Dict["NIC", None] = {}
        # counters
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        self.bytes_sent = 0
        #: frames lost per cause: the quality model, a dead switch, or a
        #: dead trunk router (three distinct failure classes in §3)
        self.drop_causes: Dict[str, int] = {"loss": 0, "switch": 0, "router": 0}
        # metrics plane: the delivery path only bumps the plain-int tallies
        # above; this pull-collector copies them into per-VLAN instruments
        # when a sample or export is taken
        reg = fabric.sim.metrics
        vl = str(vlan)
        self._m_sent = reg.counter("net.segment.frames_sent", vlan=vl)
        self._m_delivered = reg.counter("net.segment.frames_delivered", vlan=vl)
        self._m_bytes = reg.counter("net.segment.bytes_sent", vlan=vl)
        self._m_drops = {
            cause: reg.counter("net.segment.frames_dropped", vlan=vl, cause=cause)
            for cause in self.drop_causes
        }
        self._m_members = reg.gauge("net.segment.members", vlan=vl)
        reg.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        self._m_sent.set_total(self.frames_sent)
        self._m_delivered.set_total(self.frames_delivered)
        self._m_bytes.set_total(self.bytes_sent)
        for cause, count in self.drop_causes.items():
            self._m_drops[cause].set_total(count)
        self._m_members.set(len(self.members))

    @property
    def name(self) -> str:
        return f"vlan{self.vlan}"

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join(self, nic: "NIC") -> None:
        if nic.ip in self.members and self.members[nic.ip] is not nic:
            raise ValueError(f"duplicate IP {nic.ip} on {self.name}")
        if nic.segment is not None and nic.segment is not self:
            nic.segment.leave(nic)  # one broadcast domain at a time
        self.members[nic.ip] = nic
        self._snapshot = None
        nic.segment = self
        self.place(nic)

    def leave(self, nic: "NIC") -> None:
        nic._settle()
        self.members.pop(nic.ip, None)
        if self._islands is not None:
            self._islands.pop(nic.ip, None)
        self._snapshot = None
        if nic.segment is self:
            nic.segment = nic.cursor = None
            self._lazy.pop(nic, None)
            self._eager.pop(nic, None)

    def place(self, nic: "NIC") -> None:
        """File member ``nic`` as lazy (it takes records from the log's
        current end on) or eager (a delivery per multicast)."""
        if nic.lazy:
            if nic.cursor is None:
                nic.cursor = self.logged
                self._eager.pop(nic, None)
                self._lazy[nic] = None
        elif nic.cursor is not None or nic not in self._eager:
            nic.cursor = None
            self._lazy.pop(nic, None)
            self._eager[nic] = None
        if not self._eager:
            # every NIC joins eager (no sink yet); an emptied dict keeps its
            # table, so hand the farm-sized one back once boot has drained it
            self._eager = {}

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition(self, groups: list[list[IPAddress]]) -> None:
        """Split the segment into isolated islands.

        ``groups`` lists the IPs of each island; members not named fall into
        an implicit final island. Delivery then only occurs within islands.
        """
        mapping: Dict[IPAddress, int] = {}
        for island, ips in enumerate(groups):
            for ip in ips:
                mapping[IPAddress(ip)] = island
        rest = len(groups)
        for ip in self.members:
            mapping.setdefault(ip, rest)
        self._islands = mapping
        self.fabric.sim.trace.emit(
            self.fabric.sim.now, "net.partition", self.name, islands=len(groups) + 1
        )

    def heal(self) -> None:
        """Remove the partition; the segment is whole again."""
        self._islands = None
        self.fabric.sim.trace.emit(self.fabric.sim.now, "net.heal", self.name)

    @property
    def partitioned(self) -> bool:
        return self._islands is not None

    def _same_island(self, a: IPAddress, b: IPAddress) -> bool:
        if self._islands is None:
            return True
        return self._islands.get(a) == self._islands.get(b)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver_later(self, latency: float, nic: "NIC", frame: Frame) -> None:
        """Enqueue one receiver's delivery ``latency`` seconds from now.

        Deliveries landing at the same absolute instant coalesce into one
        flush event (latency is strictly positive, so a flush can never race
        the sends still filling its batch). Within a batch, receivers are
        delivered in send order — the same order per-receiver events would
        fire in, since equal-time events are FIFO by schedule sequence.
        """
        sim = self.fabric.sim
        when = sim.now + latency
        batch = self._pending.get(when)
        if batch is None:
            self._pending[when] = [(nic, frame)]
            sim.post(latency, self._flush, when)
        else:
            batch.append((nic, frame))

    def _flush(self, when: float) -> None:
        """Deliver every frame batched for the instant ``when``."""
        for nic, frame in self._pending.pop(when):
            nic.deliver(frame)

    # ------------------------------------------------------------------
    # one record per multicast
    # ------------------------------------------------------------------
    def _enqueue_record(self, sim, now: float, latency: float, sender: "NIC", frame: Frame) -> bool:
        """Batch a multicast as one :class:`_Fanout` entry instead of one
        ``(nic, frame)`` entry per receiver."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = {nic: i for i, nic in enumerate(self.members.values())}
        receivers = len(snap) - (sender in snap)
        if not receivers:
            return True
        self.frames_delivered += receivers
        when = now + latency
        entry = (_Fanout(self, snap, sender), frame)
        batch = self._pending.get(when)
        if batch is None:
            self._pending[when] = [entry]
            sim.post(latency, self._flush, when)
        else:
            batch.append(entry)
        return True

    def _deliver_each(self, frame: Frame, snap: Dict["NIC", int], sender: "NIC") -> None:
        """The per-receiver delivery a record replaces, in member order."""
        for nic in snap:
            if nic is not sender:
                nic.deliver(frame)

    def _deliver_record(self, frame: Frame, snap: Dict["NIC", int], sender: "NIC") -> None:
        """Log an arriving multicast once for the lazy members; deliver it
        to the eager ones at their slot of the record's seq block.

        Falls back to :meth:`_deliver_each` when membership changed since the
        transmit, when nobody is lazy, or when an eager member's handler is
        not a sink's (it may schedule anything; only a delivery in its own
        turn keeps the order).
        """
        eager = self._eager
        if snap is not self._snapshot or not self._lazy or any(
            nic.sink is None and nic.handler is not None and nic.can_receive for nic in eager
        ):
            self._deliver_each(frame, snap, sender)
            return
        sim = self.fabric.sim
        base = sim.reserve_seq(len(snap))
        log = self._log
        log.append((sim.now, base, frame.payload, snap, sender))
        self.logged += 1
        self._untaken += len(self._lazy)
        sim.deferred += 1
        if eager:
            for nic in sorted(eager, key=snap.__getitem__):
                if nic is not sender:
                    nic.deliver_at(frame, base + snap[nic])
        if len(log) >= self._trim_at:
            self._trim()

    def take(self, nic: "NIC", tag: int, before: float, out: list) -> int:
        """Hand over the records lazy member ``nic`` has not taken, up to
        seq ``before``: appends ``(seq, when, payload, tag)`` to ``out``,
        counts them received and advances the cursor. Returns how many."""
        log = self._log
        end = len(log)
        start = self.logged - end
        k = first = nic.cursor - start
        had = len(out)
        while k < end:
            when, base, msg, snap, sender = log[k]
            if nic is not sender:  # its own multicast is no delivery
                seq = base + snap[nic]
                if seq >= before:
                    break
                out.append((seq, when, msg, tag))
            k += 1
        nic.cursor = start + k
        self._untaken -= k - first
        if not self._untaken:  # the last member caught up: nobody needs the log
            log.clear()
        taken = len(out) - had
        nic.received += taken
        return taken

    def _trim(self) -> None:
        """Drop the records every lazy member has taken (while some lag)."""
        low = min((nic.cursor for nic in self._lazy), default=self.logged)
        del self._log[: len(self._log) - (self.logged - low)]
        self._trim_at = len(self._log) + self.LOG_TRIM

    def transmit(self, sender: "NIC", frame: Frame) -> bool:
        """Deliver ``frame`` from ``sender`` per the segment's semantics.

        Unicast reaches the matching member (if on this segment and in the
        same island); multicast fans out to every other member. Each
        receiver's delivery independently samples the quality model.
        Returns True if the frame was accepted onto the wire.
        """
        fabric = self.fabric
        sim = fabric.sim
        now = sim.now
        trace = sim.trace
        trace_emit = trace.emit
        self.frames_sent += 1
        self.bytes_sent += frame.size
        if trace.wants("net.send"):
            trace_emit(
                now, "net.send", sender.name,
                vlan=self.vlan, kind=type(frame.payload).__name__, mcast=frame.is_multicast,
            )
        else:
            trace.counters["net.send"] += 1  # counted; nobody would read the record
        # phase 1: topology eligibility (islands, dead switches, dead trunk
        # routers) — receivers that fail here never reach the loss model.
        # The healthy-farm fast path: nothing partitioned, no routers, no
        # failed switch anywhere means every target is eligible, so the
        # per-receiver walk (the multicast fan-out's dominant cost) is
        # skipped outright.
        healthy = self._islands is None and not fabric.routers and fabric.failed_switches == 0
        if frame.is_multicast:
            latency = self.quality.fixed_latency
            if healthy and latency is not None and getattr(frame.payload, "lazy_multicast", False):
                return self._enqueue_record(sim, now, latency, sender, frame)
            targets = [n for n in self.members.values() if n is not sender]
        else:
            target = self.members.get(frame.dst)  # type: ignore[arg-type]
            if target is None or target is sender:
                trace_emit(now, "net.drop.noroute", sender.name, dst=str(frame.dst))
                return True  # on the wire, nobody home
            latency = self.quality.fixed_latency
            if healthy and latency is not None:
                # nothing to sample: join (or open) the arrival instant's batch
                self.frames_delivered += 1
                when = now + latency
                batch = self._pending.get(when)
                if batch is None:
                    self._pending[when] = [(target, frame)]
                    sim.post(latency, self._flush, when)
                else:
                    batch.append((target, frame))
                return True
            targets = [target]
        if healthy:
            return self._sample_and_enqueue(sim, now, trace_emit, frame, targets)
        sender_switch = sender.port.switch.name if sender.port is not None else None
        eligible = self._eligible_targets(sender.ip, sender_switch, targets, now, trace_emit)
        return self._sample_and_enqueue(sim, now, trace_emit, frame, eligible)

    def _eligible_targets(self, src_ip, src_switch, targets, now, trace_emit) -> list:
        """Topology-eligibility walk: island membership, dead receiver
        switches, dead trunk routers."""
        eligible = []
        for nic in targets:
            if not self._same_island(src_ip, nic.ip):
                continue
            if nic.port is not None and nic.port.switch.failed:
                self.frames_lost += 1
                self.drop_causes["switch"] += 1
                trace_emit(now, "net.drop.switch", nic.name, switch=nic.port.switch.name)
                continue
            if (
                src_switch is not None
                and nic.port is not None
                and not self.fabric.switches_connected(src_switch, nic.port.switch.name)
            ):
                # the trunk router between these switches is down (§3's
                # third component class); the VLAN is partitioned along
                # switch boundaries
                self.frames_lost += 1
                self.drop_causes["router"] += 1
                trace_emit(now, "net.drop.router", nic.name,
                           from_switch=src_switch, to_switch=nic.port.switch.name)
                continue
            eligible.append(nic)
        return eligible

    def _sample_and_enqueue(self, sim, now, trace_emit, frame, eligible) -> bool:
        """Phase 2: loss-model sampling and delivery enqueue for the
        topology-eligible receivers of one frame."""
        if not eligible:
            return True
        fixed = self.quality.fixed_latency
        if fixed is not None:
            # loss-free fixed-latency link: every receiver shares one
            # delivery instant, so the whole frame enqueues as one batch
            # extension — no sampling and no per-receiver calls at all
            self.frames_delivered += len(eligible)
            when = now + fixed
            batch = self._pending.get(when)
            if batch is None:
                self._pending[when] = [(nic, frame) for nic in eligible]
                sim.post(fixed, self._flush, when)
            else:
                batch.extend((nic, frame) for nic in eligible)
            return True
        rng = self._rng
        if rng is None:
            rng = self._rng = sim.rng.stream(f"segment/{self.vlan}")
        if len(eligible) == 1:
            nic = eligible[0]
            delivered, latency = self.quality.sample(rng)
            if not delivered:
                self.frames_lost += 1
                self.drop_causes["loss"] += 1
                trace_emit(now, "net.drop.loss", nic.name, vlan=self.vlan)
                return True
            self.frames_delivered += 1
            self._deliver_later(latency, nic, frame)
            return True
        # multicast fan-out — one vectorised RNG draw per frame instead of
        # one Python-level draw per receiver
        delivered, lats = self.quality.sample_batch(rng, len(eligible))
        scalar_lat = not isinstance(lats, np.ndarray)
        deliver_later = self._deliver_later
        for i, nic in enumerate(eligible):
            if delivered is not None and not delivered[i]:
                self.frames_lost += 1
                self.drop_causes["loss"] += 1
                trace_emit(now, "net.drop.loss", nic.name, vlan=self.vlan)
                continue
            self.frames_delivered += 1
            deliver_later(lats if scalar_lat else float(lats[i]), nic, frame)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Segment({self.name}, members={len(self.members)})"
