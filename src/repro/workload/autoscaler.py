"""The Autoscaler: load-driven domain grow/shrink over live GSC moves.

"Océano reallocates servers in short time (minutes) in response to changing
workloads" (§1). The farm's one reallocation controller compares each
domain's load per server against two thresholds and moves spare servers
between the free pool and the domains through the real GSC/SNMP
reconfiguration path — ``personality change`` on the spare is already done
(spares run the back-end application from boot), so a move is exactly one
authorized VLAN change per adapter.

The load signal is an argument. By default it is **measured**: per-domain
request arrivals read from the metrics registry (the ``traffic.fe.requests``
counters the front ends maintain), which closes the loop the paper
describes. A synthetic curve — ``DomainLoadModel(...).load``, the §1
flash-crowd experiment — is just another signal fed to the same policy.

Determinism: ticks fire at fixed simulated times, decisions read only
registry counters and farm bookkeeping, and every move goes through
:class:`~repro.gulfstream.reconfig.ReconfigurationManager` — so a replay
of the same seed sees the identical move sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.farm.builder import FREE_POOL_VLAN, Farm
from repro.sim.process import Timer

__all__ = ["Autoscaler", "ScalerMove"]

#: a domain is never shrunk to this many servers or fewer
MIN_SERVERS = 2
#: simulated seconds between two moves, so one burst cannot thrash the
#: reconfiguration path
COOLDOWN = 4.0


@dataclass(frozen=True)
class ScalerMove:
    """One reallocation decision the autoscaler carried out."""

    time: float
    node: str
    src: str
    dst: str


class Autoscaler:
    """Grows and shrinks domains against a per-domain load signal.

    Policy, evaluated every ``interval`` simulated seconds between
    ``start_at`` and ``stop_at``: read ``load(domain, now)`` (requests/s)
    for every domain and divide by the domain's servers; above
    ``high_water`` move a spare in, below ``low_water`` (and above
    :data:`MIN_SERVERS`) move the domain's most recently added transplant
    back to the free pool. A global :data:`COOLDOWN` separates consecutive
    moves.

    Without a ``load`` the signal is the arrival rate the domain's front
    ends counted over the last interval.
    """

    def __init__(
        self,
        farm: Farm,
        domains: List[str],
        load: Optional[Callable[[str, float], float]] = None,
        interval: float = 2.0,
        high_water: float = 12.0,
        low_water: float = 4.0,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
    ) -> None:
        self.farm = farm
        self.sim = farm.sim
        self.domains = list(domains)
        self.load = load if load is not None else self._measured_load
        self.interval = interval
        self.high_water = high_water
        self.low_water = low_water
        self.start_at = start_at
        self.stop_at = stop_at
        self.moves: List[ScalerMove] = []
        #: nodes this controller moved into each domain (LIFO for shrink)
        self._transplants: Dict[str, List[str]] = {d: [] for d in self.domains}
        self._arrivals = {
            d: farm.sim.metrics.counter("traffic.fe.requests", domain=d)
            for d in self.domains
        }
        self._last_total: Dict[str, float] = {d: 0.0 for d in self.domains}
        self._last_move_at = float("-inf")
        self._m_moves = {
            (d, direction): farm.sim.metrics.counter(
                "autoscaler.moves", domain=d, direction=direction
            )
            for d in self.domains
            for direction in ("grow", "shrink")
        }
        self._timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = Timer(
                self.sim, self.interval, self._tick,
                initial_delay=max(0.0, self.start_at - self.sim.now) + self.interval,
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def domain_size(self, domain: str) -> int:
        return len(self.farm.domain_nodes[domain]) + len(self._transplants[domain])

    def _measured_load(self, domain: str, now: float) -> float:
        """Arrivals per second at ``domain``'s front ends since the last tick."""
        total = float(self._arrivals[domain].value)
        rate = (total - self._last_total[domain]) / self.interval
        self._last_total[domain] = total
        return rate

    def _tick(self) -> None:
        now = self.sim.now
        if self.stop_at is not None and now > self.stop_at:
            self.stop()
            return
        # every domain, every tick: a measured signal is a delta since the
        # previous reading, so it must not skip the ticks that cannot move
        rates = {domain: self.load(domain, now) for domain in self.domains}
        gsc = self.farm.gsc()
        if gsc is None or gsc.stable_time is None:
            return  # no console to authorize moves yet (or mid-failover)
        if now - self._last_move_at < COOLDOWN:
            return
        for domain in self.domains:
            per_server = rates[domain] / max(1, self.domain_size(domain))
            if per_server > self.high_water and self.farm.spare_nodes:
                self._move(domain, grow=True)
                return  # one move per tick: the next tick sees its effect
            if (
                per_server < self.low_water
                and self._transplants[domain]
                and self.domain_size(domain) > MIN_SERVERS
            ):
                self._move(domain, grow=False)
                return

    def _move(self, domain: str, grow: bool) -> None:
        try:
            rm = self.farm.reconfig()
        except RuntimeError:
            return  # GSC mid-failover: retry at the next tick
        if grow:
            node = self.farm.spare_nodes.pop(0)
            target_vlan = self.farm.domain_vlans[domain]
            src, dst = "free-pool", domain
        else:
            node = self._transplants[domain][-1]
            target_vlan = FREE_POOL_VLAN
            src, dst = domain, "free-pool"
        host = self.farm.hosts[node]
        # the admin adapter never moves (Figure 1: every domain stays
        # attached to the administrative network)
        for nic in host.adapters[1:]:
            rm.move_adapter(nic.ip, target_vlan)
        if grow:
            self._transplants[domain].append(node)
        else:
            self._transplants[domain].pop()
            self.farm.spare_nodes.append(node)
        now = self.sim.now
        self._last_move_at = now
        self.moves.append(ScalerMove(now, node, src, dst))
        self._m_moves[(domain, "grow" if grow else "shrink")].inc()
        self.sim.trace.emit(
            now, "autoscaler.grow" if grow else "autoscaler.shrink",
            domain, node=node,
        )
