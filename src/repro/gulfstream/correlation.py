"""Event correlation: adapters → nodes / switches / routers.

§3: "The failures of servers, routers, and network switch components are
inferred from the detected failures of the individual network adapters.
This is a straightforward correlation function: if all of the adapters
connected to a server are reported as failed, then we infer that the server
itself has failed; likewise, if all of the adapters that are wired into a
router, hub, or network switch are reported as failed, we infer that the
network equipment has failed. As soon as one of these adapters recovers, we
infer that the correlated node/router/switch has recovered."

The engine is fed individual adapter up/down transitions by GulfStream
Central and publishes component transitions on the notification bus. The
adapter→node mapping comes from the membership reports themselves
(:class:`~repro.gulfstream.messages.MemberInfo` carries the node name); the
adapter→switch wiring comes from the configuration database or from an SNMP
walk of the switches (the paper's future-work alternative, which
:meth:`CorrelationEngine.load_wiring_from_snmp` implements).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.net.addressing import IPAddress

__all__ = ["CorrelationEngine"]

_NONE: Set[IPAddress] = frozenset()  # type: ignore[assignment]


class _Wiring(Dict[IPAddress, str]):
    """adapter → component, with component → {adapters} kept beside it, so
    inferring one component's status costs O(its adapters), not O(farm)."""

    def __init__(self) -> None:
        super().__init__()
        self.adapters: Dict[str, Set[IPAddress]] = {}

    def __setitem__(self, ip: IPAddress, component: str) -> None:
        old = self.get(ip)
        if old is not None:
            self.adapters[old].discard(ip)
        super().__setitem__(ip, component)
        self.adapters.setdefault(component, set()).add(ip)

    def setdefault(self, ip: IPAddress, component: str) -> str:  # type: ignore[override]
        if ip not in self:
            self[ip] = component
        return self[ip]

    def of(self, component: str) -> Set[IPAddress]:
        """The adapters mapped to ``component`` (live; do not mutate)."""
        return self.adapters.get(component, _NONE)


class CorrelationEngine:
    """Infers component status from adapter status."""

    def __init__(self, publish: Callable[..., None]) -> None:
        #: publish(kind, subject, **detail) — bound to the GSC's bus
        self._publish = publish
        #: adapter → node name (learned from reports)
        self.adapter_node = _Wiring()
        #: adapter → switch name (from config DB or SNMP walk)
        self.adapter_switch = _Wiring()
        #: adapter → trunk router it sits behind (from config DB)
        self.adapter_router = _Wiring()
        #: adapter liveness as currently known
        self.adapter_up: Dict[IPAddress, bool] = {}
        #: components currently inferred down
        self.nodes_down: Set[str] = set()
        self.switches_down: Set[str] = set()
        self.routers_down: Set[str] = set()

    # ------------------------------------------------------------------
    # wiring knowledge
    # ------------------------------------------------------------------
    def load_wiring_from_db(self, db) -> None:
        """Adapter→switch/router wiring from the configuration database (§3)."""
        for row in db.all_expected():
            self.adapter_switch[row.ip] = row.switch
            if getattr(row, "router", None):
                self.adapter_router[row.ip] = row.router
            self.adapter_node.setdefault(row.ip, row.node)

    def load_wiring_from_snmp(self, console) -> None:
        """Adapter→switch wiring by querying the switches directly —
        the paper's planned replacement for the database dependency."""
        for row in console.walk_connections():
            self.adapter_switch[row["ip"]] = row["switch"]
            self.adapter_node.setdefault(row["ip"], row["node"])

    # ------------------------------------------------------------------
    # feed
    # ------------------------------------------------------------------
    def adapter_event(self, ip: IPAddress, node: str, up: bool) -> None:
        """One adapter transition; re-evaluates the affected components."""
        self.adapter_node[ip] = node
        was = self.adapter_up.get(ip)
        self.adapter_up[ip] = up
        if was == up:
            return
        self._evaluate_node(node)
        switch = self.adapter_switch.get(ip)
        if switch is not None:
            self._evaluate_switch(switch)
        router = self.adapter_router.get(ip)
        if router is not None:
            self._evaluate_router(router)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _node_adapters(self, node: str) -> Set[IPAddress]:
        return self.adapter_node.of(node)

    def _switch_adapters(self, switch: str) -> Set[IPAddress]:
        return self.adapter_switch.of(switch)

    def _evaluate_node(self, node: str) -> None:
        adapters = self._node_adapters(node)
        if not adapters:
            return
        all_down = all(not self.adapter_up.get(ip, False) for ip in adapters)
        if all_down and node not in self.nodes_down:
            self.nodes_down.add(node)
            self._publish("node_failed", node, adapters=len(adapters))
        elif not all_down and node in self.nodes_down:
            self.nodes_down.discard(node)
            self._publish("node_recovered", node)

    def _evaluate_switch(self, switch: str) -> None:
        adapters = self._switch_adapters(switch)
        if not adapters:
            return
        # only consider adapters whose status has ever been reported
        known = [ip for ip in adapters if ip in self.adapter_up]
        if not known or len(known) < len(adapters):
            # incomplete knowledge: never infer equipment failure from a
            # partial picture
            if switch in self.switches_down and any(
                self.adapter_up.get(ip, False) for ip in known
            ):
                self.switches_down.discard(switch)
                self._publish("switch_recovered", switch)
            return
        all_down = all(not self.adapter_up[ip] for ip in known)
        if all_down and switch not in self.switches_down:
            self.switches_down.add(switch)
            self._publish("switch_failed", switch, adapters=len(known))
        elif not all_down and switch in self.switches_down:
            self.switches_down.discard(switch)
            self._publish("switch_recovered", switch)

    def _router_adapters(self, router: str) -> Set[IPAddress]:
        return self.adapter_router.of(router)

    def _evaluate_router(self, router: str) -> None:
        """§3: all adapters behind one router dead ⇒ the router is dead."""
        adapters = self._router_adapters(router)
        if not adapters:
            return
        known = [ip for ip in adapters if ip in self.adapter_up]
        if not known or len(known) < len(adapters):
            if router in self.routers_down and any(
                self.adapter_up.get(ip, False) for ip in known
            ):
                self.routers_down.discard(router)
                self._publish("router_recovered", router)
            return
        all_down = all(not self.adapter_up[ip] for ip in known)
        if all_down and router not in self.routers_down:
            self.routers_down.add(router)
            self._publish("router_failed", router, adapters=len(known))
        elif not all_down and router in self.routers_down:
            self.routers_down.discard(router)
            self._publish("router_recovered", router)

    # ------------------------------------------------------------------
    def node_status(self, node: str) -> Optional[bool]:
        """True=up, False=down, None=unknown."""
        adapters = self._node_adapters(node)
        if not adapters:
            return None
        return any(self.adapter_up.get(ip, False) for ip in adapters)

    def switch_status(self, switch: str) -> Optional[bool]:
        adapters = self._switch_adapters(switch)
        if not adapters:
            return None
        known = [ip for ip in adapters if ip in self.adapter_up]
        if not known:
            return None
        return any(self.adapter_up[ip] for ip in known)

    def router_status(self, router: str) -> Optional[bool]:
        adapters = self._router_adapters(router)
        if not adapters:
            return None
        known = [ip for ip in adapters if ip in self.adapter_up]
        if not known:
            return None
        return any(self.adapter_up[ip] for ip in known)
