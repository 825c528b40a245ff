"""Ring heartbeating (§3, Figure 4).

Each member derives its ring neighbours from the committed view's rank
order. In *unidirectional* mode an adapter heartbeats its right neighbour
and monitors its left; in *bidirectional* mode (the GulfStream default) it
does both, enabling the leader's two-neighbour consensus.

The engine is per-adapter and purely local: it sends heartbeats on a timer,
tracks when each monitored neighbour was last heard, raises a suspicion
callback after ``hb_miss_threshold`` silent intervals (re-raising
periodically while the silence persists, so a dismissed-as-false suspicion
can be retried), and raises a *total-silence* callback when nobody has been
heard for ``orphan_timeout`` — the trigger for the §3.1 moved-adapter
self-promotion path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.addressing import IPAddress
from repro.gulfstream.amg import AMGView
from repro.gulfstream.messages import SIZE_HEARTBEAT, Heartbeat
from repro.metrics.core import Counter, MetricsRegistry
from repro.net.packet import Frame
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np
    from repro.gulfstream.adapter_proto import AdapterProtocol

__all__ = ["RingHeartbeat", "hb_counters"]


def hb_counters(reg: MetricsRegistry) -> Tuple[Counter, ...]:
    """The farm-wide ``gs.hb.*`` counters every engine increments. Engines
    are per-view and short-lived; their owner resolves these once and hands
    them to each engine it builds."""
    return tuple(
        reg.counter(f"gs.hb.{name}")
        for name in ("sent", "received", "rounds", "suspects", "false_suspects", "total_silence")
    )


class RingHeartbeat:
    """Heartbeat send/monitor engine for one adapter in one view.

    Parameters
    ----------
    proto:
        Owning adapter protocol (params, clock, and ``send_frames``, the
        one call a tick puts its frames on the wire with).
    view:
        The committed view this engine serves; a new commit builds a new
        engine.
    on_suspect:
        Called with the neighbour's IP when it goes silent past threshold.
    on_total_silence:
        Called (once per episode) when *every* monitored neighbour has been
        silent for ``orphan_timeout``.
    counters, rng:
        The owner's :func:`hb_counters` and ``hb/<nic>`` stream; resolved here when not given.
    """

    def __init__(
        self,
        proto: "AdapterProtocol",
        view: AMGView,
        on_suspect: Callable[[IPAddress], None],
        on_total_silence: Callable[[], None],
        counters: Optional[Tuple[Counter, ...]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.proto = proto
        self.view = view
        self.on_suspect = on_suspect
        self.on_total_silence = on_total_silence
        p = proto.params
        left, right = view.neighbors(proto.ip)
        if proto.params.hb_mode == "bidirectional":
            self.targets: Set[IPAddress] = {ip for ip in (left, right) if ip is not None}
            self.monitored: Set[IPAddress] = set(self.targets)
        else:
            self.targets = {right} if right is not None else set()
            self.monitored = {left} if left is not None else set()
        now = proto.sim.now
        self.last_heard: Dict[IPAddress, float] = {ip: now for ip in self.monitored}
        self._suspect_raised_at: Dict[IPAddress, float] = {}
        self._silence_raised_at: float | None = None
        self._send_timer: Optional[Timer] = None
        self._check_timer: Optional[Timer] = None
        if self.targets or self.monitored:
            if rng is None:
                rng = proto.sim.rng.stream(f"hb/{proto.nic.name}")
            # the old `min(0.05 * interval, 0.45 * interval)` was a no-op min
            # (always the 0.05 arm); the fraction is now an explicit,
            # validated param — GSParams.validate() guarantees frac < 1, so
            # the Timer's `jitter < interval` requirement always holds
            jitter = p.hb_jitter_frac * p.hb_interval
            self._send_timer = Timer(
                proto.sim, p.hb_interval, self._send,
                initial_delay=float(rng.uniform(0, p.hb_interval)),
                jitter=jitter, rng=rng,
            )
            self._check_timer = Timer(
                proto.sim, p.hb_interval, self._check,
                initial_delay=p.hb_interval * (p.hb_miss_threshold + 0.5),
            )
        # the per-view neighbour sets never change while this engine lives
        # (a membership change builds a new engine), so cache the send list
        # in deterministic rank-independent order for the per-tick loop
        self._send_targets = tuple(sorted(self.targets, key=int))
        # ... and neither do the message, the frames carrying it to each
        # target in that order, or the thresholds
        msg = Heartbeat(sender=proto.ip, epoch=view.epoch)
        self._frames = tuple(
            Frame(proto.ip, ip, msg, SIZE_HEARTBEAT) for ip in self._send_targets
        )
        self._threshold = p.hb_miss_threshold * p.hb_interval
        self._resuspect_after = max(2, p.hb_miss_threshold) * p.hb_interval * 3
        # counters for load accounting
        self.sent = 0
        self.received = 0
        (
            self._m_sent, self._m_received, self._m_rounds,
            self._m_suspects, self._m_false, self._m_silence,
        ) = counters or hb_counters(proto.sim.metrics)

    # ------------------------------------------------------------------
    def _send(self) -> None:
        frames = self._frames
        if not frames:
            return
        self._m_rounds.inc()
        # one call: one send-eligibility test and one port → segment
        # resolution cover both neighbours
        self.proto.send_frames(frames)
        n = len(frames)
        self.sent += n
        self._m_sent.inc(n)

    def on_heartbeat(self, src: IPAddress, epoch: int) -> None:
        """Feed an incoming heartbeat (the protocol dispatches to us)."""
        last_heard = self.last_heard  # keyed by exactly the monitored set
        if src in last_heard:
            last_heard[src] = self.proto.sim.now
            raised = self._suspect_raised_at
            if raised and raised.pop(src, None) is not None:
                # the suspect spoke again: that suspicion was false
                self._m_false.inc()
            self._silence_raised_at = None
            self.received += 1
            self._m_received.inc()

    def _check(self) -> None:
        p = self.proto.params
        now = self.proto.sim.now
        heard = self.last_heard.values()
        if heard and now - min(heard) <= self._threshold and now - max(heard) <= p.orphan_timeout:
            return  # the oldest is no suspect and the newest breaks the silence
        for ip in self.monitored:
            silent_for = now - self.last_heard[ip]
            if silent_for <= self._threshold:
                continue
            raised = self._suspect_raised_at.get(ip)
            if raised is None or now - raised >= self._resuspect_after:
                self._suspect_raised_at[ip] = now
                self._m_suspects.inc()
                self.proto.trace("gs.hb.suspect", neighbor=str(ip), silent=round(silent_for, 3))
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
                self._m_silence.inc()
                self.on_total_silence()

    def stop(self) -> None:
        """Tear the engine down (view superseded or daemon stopping).

        Dropping the timers breaks the engine ↔ timer reference cycle, so a
        superseded engine is freed at once instead of by the cyclic GC."""
        if self._send_timer is not None:
            self._send_timer.cancel()
            self._send_timer = None
        if self._check_timer is not None:
            self._check_timer.cancel()
            self._check_timer = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RingHeartbeat({self.proto.nic.name}, targets={len(self.targets)}, "
            f"monitored={len(self.monitored)})"
        )
