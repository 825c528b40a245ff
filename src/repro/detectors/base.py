"""Common harness and base class for standalone failure detectors.

The harness isolates the *failure-detection* question from everything else:
N adapters on one broadcast segment, a pluggable per-member detector
protocol, scripted crashes, and three measurements —

* **network load**: frames and bytes on the segment per second;
* **detection latency**: crash time → first declaration of that member;
* **false positives**: declarations of members that were alive at the time.

This is the apparatus behind ``benchmarks/bench_detector_comparison.py``
(the §4.2 scalability discussion) and the false-positive/detection-time
trade-off study of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.net.addressing import IPAddress
from repro.net.fabric import Fabric
from repro.net.loss import LinkQuality
from repro.net.nic import NIC, NicState
from repro.sim.engine import Simulator

__all__ = ["Declaration", "DetectorHarness", "DetectorMember", "DetectorParams"]

#: wire size of every detector message, for load accounting (bytes)
MSG_SIZE = 40


@dataclass(frozen=True)
class DetectorParams:
    """Knobs shared by all detector implementations."""

    #: heartbeat / ping period
    interval: float = 1.0
    #: consecutive misses (or timeouts) before declaring failure
    miss_threshold: int = 2
    #: reply deadline for request/response detectors
    timeout: float = 0.5
    #: number of indirect-probe proxies (gossip detector)
    proxies: int = 3


@dataclass(frozen=True)
class Declaration:
    """One failure declaration by one member."""

    time: float
    suspect: IPAddress
    reporter: IPAddress
    #: was the suspect actually dead when declared?
    correct: bool


class DetectorMember:
    """Base class: one detector instance bound to one adapter.

    Subclasses implement :meth:`start` (arm timers) and :meth:`on_frame`.
    They call :meth:`declare` when they conclude a peer has failed, and
    must stop declaring a peer once declared (the harness also dedupes
    per (reporter, suspect) episode).
    """

    def __init__(self, harness: "DetectorHarness", nic: NIC, params: DetectorParams) -> None:
        self.harness = harness
        self.nic = nic
        self.params = params
        self.sim = harness.sim
        self.peers: List[IPAddress] = []  # filled by the harness
        self.declared: set = set()
        self._timers: list = []
        nic.handler = self.on_frame

    # -- to implement ------------------------------------------------------
    def start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_frame(self, frame) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- services ----------------------------------------------------------
    def send(self, dst: IPAddress, payload) -> None:
        self.nic.send(dst, payload, size=MSG_SIZE)

    def declare(self, suspect: IPAddress) -> None:
        if suspect in self.declared:
            return
        self.declared.add(suspect)
        self.harness.record_declaration(self.nic.ip, suspect)

    def clear(self, suspect: IPAddress) -> None:
        """A declared peer proved alive again (message received)."""
        self.declared.discard(suspect)

    def add_timer(self, timer) -> None:
        self._timers.append(timer)

    def stop(self) -> None:
        for t in self._timers:
            t.cancel()
        self._timers.clear()

    @property
    def monitor_count(self) -> int:
        """How many peers this member actively monitors (for analysis)."""
        return len(self.peers)


class DetectorHarness:
    """N members on one segment, running one detector implementation."""

    VLAN = 1

    def __init__(
        self,
        n: int,
        detector_cls: Type[DetectorMember],
        params: Optional[DetectorParams] = None,
        seed: int = 0,
        quality: Optional[LinkQuality] = None,
    ) -> None:
        if n < 2:
            raise ValueError("a detector needs at least two members")
        self.sim = Simulator(seed=seed)
        self.fabric = Fabric(self.sim, default_quality=quality)
        self.params = params if params is not None else DetectorParams()
        self.members: List[DetectorMember] = []
        self.dead: Dict[IPAddress, float] = {}
        self.declarations: List[Declaration] = []
        #: the poller of centralized schemes: the last member
        self.monitor_index = n - 1
        ips = [IPAddress(f"10.0.{i // 250}.{i % 250 + 1}") for i in range(n)]
        for i, ip in enumerate(ips):
            nic = NIC(ip, f"m{i}", index=0)
            self.fabric.attach(nic, "sw", self.VLAN)
            member = detector_cls(self, nic, self.params)
            self.members.append(member)
        for i, member in enumerate(self.members):
            member.peers = [ip for j, ip in enumerate(ips) if j != i]
            member.index = i  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    @property
    def segment(self):
        return self.fabric.segments[self.VLAN]

    def start(self) -> None:
        for m in self.members:
            m.start()

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, index: int) -> IPAddress:
        """Kill member ``index`` now; returns its address."""
        member = self.members[index]
        member.stop()
        member.nic.fail(NicState.FAIL_FULL)
        self.dead[member.nic.ip] = self.sim.now
        return member.nic.ip

    def fail_adapter(
        self, index: int, mode: NicState = NicState.FAIL_FULL
    ) -> IPAddress:
        """Degrade member ``index``'s adapter now, without stopping it.

        Unlike :meth:`crash` the member's protocol keeps running — a
        FAIL_SEND member still hears traffic, a FAIL_RECV member still
        transmits — which is exactly the asymmetry the §3 partial-failure
        discussion cares about. Any mode counts as dead for declaration
        scoring: the adapter *is* impaired, so declaring it is correct.
        """
        member = self.members[index]
        member.nic.fail(mode)
        self.dead[member.nic.ip] = self.sim.now
        return member.nic.ip

    def repair_adapter(self, index: int) -> IPAddress:
        """Undo :meth:`fail_adapter`: restore the NIC and clear dead status."""
        member = self.members[index]
        member.nic.repair()
        self.dead.pop(member.nic.ip, None)
        return member.nic.ip

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def record_declaration(self, reporter: IPAddress, suspect: IPAddress) -> None:
        correct = suspect in self.dead
        self.declarations.append(
            Declaration(self.sim.now, suspect, reporter, correct)
        )

    def detection_time(self, suspect: IPAddress) -> Optional[float]:
        """Crash → first (correct) declaration latency."""
        crashed_at = self.dead.get(suspect)
        if crashed_at is None:
            return None
        times = [
            d.time for d in self.declarations if d.suspect == suspect and d.correct
        ]
        return min(times) - crashed_at if times else None

    def false_positives(self) -> List[Declaration]:
        return [d for d in self.declarations if not d.correct]

    def load_stats(self, elapsed: Optional[float] = None) -> dict:
        """Per-second frame and byte rates on the segment."""
        seg = self.segment
        t = elapsed if elapsed is not None else max(self.sim.now, 1e-9)
        return {
            "frames_per_sec": seg.frames_sent / t,
            "bytes_per_sec": seg.bytes_sent / t,
            "frames_total": seg.frames_sent,
            "members": len(self.members),
        }
