"""Network adapter (NIC) model.

GulfStream is adapter-centric: groups, heartbeats, and failure reports are
all about adapters, and node status is only ever *inferred* from adapter
status. The NIC model therefore carries the failure modes the paper's
failure-detection discussion distinguishes:

* ``FAIL_SEND`` — the adapter stops transmitting but still receives;
* ``FAIL_RECV`` — the adapter "ceases to receive messages from the network",
  the case the paper notes gets *incorrectly blamed on the left neighbour*
  unless a loopback self-test is run first;
* ``FAIL_FULL`` — both directions dead (also used for node crashes);
* ``DISABLED`` — administratively downed by GulfStream Central after a
  configuration-verification conflict.

An adapter bound to a *sink* (:meth:`NIC.bind`: the GulfStream protocol
instance reading it) may take its segment's multicasts lazily, as records the
host's OS model bills later (docs/PROTOCOL.md §8, "One record per
multicast"). It does so while it can receive and the sink says ``lazy``;
:attr:`NIC.cursor` is then its place in the segment's log. Whatever changes
that — a failure, a repair, a new handler, leaving the segment — first lets
the host catch up on what was delivered under the old rules.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.net.addressing import IPAddress, MULTICAST
from repro.net.packet import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.fabric import Fabric
    from repro.net.segment import Segment
    from repro.net.switch import Port

__all__ = ["NIC", "NicState"]


class NicState(enum.Enum):
    """Operational state of an adapter."""

    OK = "ok"
    FAIL_SEND = "fail_send"
    FAIL_RECV = "fail_recv"
    FAIL_FULL = "fail_full"
    DISABLED = "disabled"


# member lookup on the enum class costs ten times a module global, per frame
_OK, _FAIL_SEND, _FAIL_RECV = NicState.OK, NicState.FAIL_SEND, NicState.FAIL_RECV


class NIC:
    """One network adapter attached to a switch port.

    Sending resolves the adapter's broadcast domain *at send time* through
    its port's current VLAN, so an SNMP VLAN move takes effect on the very
    next frame — the daemon is never told, exactly as in the paper's domain
    reconfiguration story.
    """

    def __init__(self, ip: IPAddress, node_name: str, index: int) -> None:
        self.ip = ip
        #: name of the host this adapter belongs to (for correlation)
        self.node_name = node_name
        #: adapter index on its host; index 0 is the administrative adapter
        #: by the prototype's convention (paper §2.2)
        self.index = index
        #: stable label, e.g. ``node-3/eth1`` — precomputed because it tags
        #: every trace emission on the delivery hot path
        self.name = f"{node_name}/eth{index}"
        self.state = NicState.OK
        self.port: Optional["Port"] = None
        self.fabric: Optional["Fabric"] = None
        # receive callback (see :attr:`handler`) and the object behind it that
        # can take multicast records lazily, if any (see :meth:`bind`)
        self._handler: Optional[Callable[[Frame], None]] = None
        self.sink: Any = None
        #: the segment listing this adapter as a member (set by the segment)
        self.segment: Optional["Segment"] = None
        #: absolute index of the first record in ``segment``'s multicast log
        #: this adapter has not taken; None while it takes deliveries eagerly
        self.cursor: Optional[int] = None
        #: secondary callback for application (non-GulfStream) payloads;
        #: the daemon demuxes unrecognized frames here (§1: the farm hosts
        #: real request traffic on the same adapters)
        self.app_handler: Optional[Callable[[Frame], None]] = None
        # traffic counters (frames, not bytes)
        self.sent = 0
        self.received = 0
        #: frames refused because this adapter could not transmit / receive
        #: (FAIL_SEND / FAIL_RECV / FAIL_FULL / DISABLED states); aggregated
        #: farm-wide by the fabric's metrics collector
        self.send_drops = 0
        self.recv_drops = 0

    # ------------------------------------------------------------------
    # receive callback and lazy multicast records
    # ------------------------------------------------------------------
    @property
    def handler(self) -> Optional[Callable[[Frame], None]]:
        """Receive callback installed by the daemon; called as handler(frame)."""
        return self._handler

    @handler.setter
    def handler(self, fn: Optional[Callable[[Frame], None]]) -> None:
        self.bind(fn)

    def bind(self, fn: Optional[Callable[[Frame], None]], sink: Any = None) -> None:
        """Install the receive callback ``fn``.

        ``sink`` is the object ``fn`` belongs to when it can also take
        multicast records lazily: it has ``lazy`` (may it, now?), ``os``
        (the host's OS model, which bills the records), ``take(keys, seqs,
        payloads)`` (the billed records in key order, as columns: an
        ``array('d')`` of key times, an ``array('q')`` of seqs and a list of
        payloads) and ``receive_at(frame, seq)`` (``fn``'s work for a logged
        multicast while it is not lazy, its event at the reserved ``seq``).
        Records never reach ``fn``.
        """
        if sink is not None and self not in sink.os.nics:
            raise ValueError(f"{self.name}: the sink's OS model does not bill this adapter")
        self._settle()
        self._handler = fn
        self.sink = sink
        self._sync()

    @property
    def lazy(self) -> bool:
        """Would this adapter take a multicast record lazily right now?"""
        s = self.state
        return self.sink is not None and self.sink.lazy and (s is _OK or s is _FAIL_SEND)

    def _settle(self) -> None:
        """Bill the records delivered so far before the rules change."""
        if self.cursor is not None:
            self.sink.os.catch_up()

    def _sync(self) -> None:
        """Tell the segment whether this adapter is lazy now."""
        if self.segment is not None:
            self.segment.place(self)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def fail(self, mode: NicState = NicState.FAIL_FULL) -> None:
        """Inject a failure. ``mode`` must be one of the FAIL_* states."""
        if mode not in (NicState.FAIL_SEND, NicState.FAIL_RECV, NicState.FAIL_FULL):
            raise ValueError(f"not a failure mode: {mode!r}")
        self._settle()
        self.state = mode
        self._sync()
        if self.fabric is not None:
            self.fabric.sim.trace.emit(
                self.fabric.sim.now, "net.nic.fail", self.name, mode=mode.value
            )

    def disable(self) -> None:
        """Administrative disable (GulfStream Central conflict handling)."""
        self._settle()
        self.state = NicState.DISABLED
        self._sync()
        if self.fabric is not None:
            self.fabric.sim.trace.emit(self.fabric.sim.now, "net.nic.disable", self.name)

    def repair(self) -> None:
        """Return the adapter to full service."""
        self._settle()
        self.state = NicState.OK
        self._sync()
        if self.fabric is not None:
            self.fabric.sim.trace.emit(self.fabric.sim.now, "net.nic.repair", self.name)

    @property
    def can_send(self) -> bool:
        s = self.state
        return s is NicState.OK or s is NicState.FAIL_RECV

    @property
    def can_receive(self) -> bool:
        s = self.state
        return s is NicState.OK or s is NicState.FAIL_SEND

    def loopback_test(self) -> bool:
        """Local self-test: does this adapter's own send+receive path work?

        The paper uses this before blaming a silent left neighbour: a
        receive-path failure on *this* adapter produces the same symptom as
        the neighbour dying.
        """
        return self.state == NicState.OK

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def send(self, dst: IPAddress, payload: Any, size: int = 64) -> bool:
        """Unicast ``payload`` to ``dst`` on this adapter's current segment.

        Returns True if the frame made it onto the wire (delivery may still
        fail downstream); False if this adapter could not transmit.
        """
        segment = self._wire(1)
        return segment is not None and segment.transmit(self, Frame(self.ip, dst, payload, size))

    def multicast(self, payload: Any, size: int = 64) -> bool:
        """Multicast to every adapter on this adapter's current segment."""
        segment = self._wire(1)
        return segment is not None and segment.transmit(
            self, Frame(self.ip, MULTICAST, payload, size)
        )

    def send_frames(self, frames: Sequence[Frame]) -> bool:
        """Put ``frames`` (built by the caller, ``src`` this adapter) on the
        wire of the segment this adapter's port is in now.

        The send-eligibility test and the port → VLAN → switch checks run
        once for the batch, then :meth:`Segment.transmit` once per frame;
        counters, traces and deliveries are those of one :meth:`send` per
        frame (a ring heartbeat tick sends its prebuilt frames through
        here). True if the frames made it onto the wire.
        """
        segment = self._wire(len(frames))
        if segment is None:
            return False
        ok = True
        for frame in frames:
            ok = segment.transmit(self, frame) and ok
        return ok

    def _wire(self, count: int) -> Optional["Segment"]:
        """The segment ``count`` frames from this adapter go onto now, or
        None when they cannot leave (each counted and traced as a drop)."""
        fabric, port = self.fabric, self.port
        if fabric is None or port is None:
            raise RuntimeError(f"{self.name} is not attached to a fabric")
        state = self.state
        if state is not _OK and state is not _FAIL_RECV:  # cannot send
            self.send_drops += count
            for _ in range(count):
                fabric.sim.trace.emit(
                    fabric.sim.now, "net.drop.sender", self.name, state=state.value
                )
            return None
        self.sent += count
        if port.vlan is None:
            for _ in range(count):
                fabric.sim.trace.emit(fabric.sim.now, "net.drop.unattached", self.name)
            return None
        if port.switch.failed:
            for _ in range(count):
                fabric.sim.trace.emit(
                    fabric.sim.now, "net.drop.switch", self.name, switch=port.switch.name
                )
            return None
        return fabric.segments[port.vlan]

    def deliver(self, frame: Frame) -> None:
        """Called by the fabric when a frame arrives (post-latency)."""
        if self.state is not _OK and self.state is not _FAIL_SEND:  # cannot receive
            self.recv_drops += 1
            if self.fabric is not None:
                self.fabric.sim.trace.emit(
                    self.fabric.sim.now, "net.drop.receiver", self.name, state=self.state.value
                )
            return
        self.received += 1
        if self._handler is not None:
            self._handler(frame)

    def deliver_at(self, frame: Frame, seq: int) -> None:
        """:meth:`deliver` for a logged multicast at an eager adapter: the
        handling event the sink schedules takes the reserved ``seq``."""
        s = self.state
        if self.sink is None or not (s is _OK or s is _FAIL_SEND):
            self.deliver(frame)
            return
        self.received += 1
        self.sink.receive_at(frame, seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NIC({self.name}, {self.ip}, {self.state.value})"
