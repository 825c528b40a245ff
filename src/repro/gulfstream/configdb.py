"""The configuration database and topology verification.

§2.2: "GulfStream Central can compare the discovered topology to that
stored in the database. Inconsistencies can be flagged and the affected
adapters disabled, for security reasons, until conflicts are resolved."
The paper lists this as partially implemented ("We have not yet implemented
a complete comparison..."); here it is complete.

The database stores the *expected* topology: for every adapter its node,
switch/port wiring, and VLAN. Verification inverts the naive design exactly
as the paper describes — GulfStream discovers the configuration and then
identifies inconsistencies via the database:

* ``missing`` — expected adapter never discovered;
* ``unknown`` — discovered adapter absent from the database (a security
  event: an unauthorized machine on a customer VLAN);
* ``misplaced`` — discovered in a group whose members' expected VLANs
  disagree with its own (e.g. wired into the wrong switch port).

The wiring table also feeds the §3 event-correlation function ("At present,
GulfStream Central relies on a configuration database to identify how nodes
are connected to routers and switches").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.net.addressing import IPAddress

__all__ = ["ConfigDatabase", "ExpectedAdapter", "Inconsistency"]


@dataclass(frozen=True)
class ExpectedAdapter:
    """One row of the expected topology."""

    ip: IPAddress
    node: str
    switch: str
    port: int
    vlan: int
    #: trunk router this adapter sits behind, relative to the management
    #: side — feeds the §3 router-correlation rule (None = direct)
    router: Optional[str] = None


@dataclass(frozen=True)
class Inconsistency:
    """One discovered-vs-expected conflict."""

    kind: str  # missing | unknown | misplaced
    ip: IPAddress
    detail: str


class ConfigDatabase:
    """In-memory expected-topology store.

    Only GulfStream Central reads it — "access to the configuration
    database has been limited to GulfStream Central. To a great extent this
    permits a larger farm before the database becomes a scaling bottleneck"
    (§4.2). The ``reads``/``writes`` counters let the SCALE-GSC bench verify
    that property.
    """

    def __init__(self) -> None:
        self._rows: Dict[IPAddress, ExpectedAdapter] = {}
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add(self, row: ExpectedAdapter) -> None:
        self._rows[row.ip] = row
        self.writes += 1

    def remove(self, ip: IPAddress) -> None:
        self._rows.pop(IPAddress(ip), None)
        self.writes += 1

    def set_vlan(self, ip: IPAddress, vlan: int) -> None:
        """Update the expected VLAN (GSC does this when it moves a node)."""
        ip = IPAddress(ip)
        row = self._rows.get(ip)
        if row is None:
            raise KeyError(f"no expected adapter {ip}")
        self._rows[ip] = ExpectedAdapter(
            row.ip, row.node, row.switch, row.port, vlan, row.router
        )
        self.writes += 1

    @classmethod
    def from_fabric(cls, fabric, router_map: Optional[Dict[str, str]] = None) -> "ConfigDatabase":
        """Snapshot a fabric's wiring as the expected topology.

        ``router_map`` assigns switches to the trunk router they sit
        behind (from the management side's point of view), populating the
        rows' ``router`` column for §3 router correlation.
        """
        db = cls()
        router_map = router_map or {}
        for row in fabric.connections():
            db.add(
                ExpectedAdapter(
                    ip=row["ip"],
                    node=row["node"],
                    switch=row["switch"],
                    port=row["port"],
                    vlan=row["vlan"],
                    router=router_map.get(row["switch"]),
                )
            )
        return db

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def expected(self, ip: IPAddress) -> Optional[ExpectedAdapter]:
        self.reads += 1
        return self._rows.get(IPAddress(ip))

    def all_expected(self) -> List[ExpectedAdapter]:
        self.reads += 1
        return list(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # verification (§2.2)
    # ------------------------------------------------------------------
    def verify(self, discovered_groups: Iterable[Iterable[IPAddress]]) -> List[Inconsistency]:
        """Compare discovered AMGs against the expected topology.

        ``discovered_groups`` is the partition of adapter IPs into AMGs as
        known to GulfStream Central. Each group should correspond to one
        expected VLAN.
        """
        self.reads += 1
        issues: List[Inconsistency] = []
        seen: Set[IPAddress] = set()
        for group in discovered_groups:
            ips = [IPAddress(ip) for ip in group]
            seen.update(ips)
            # majority expected VLAN of the group's known members
            vlans = Counter(
                self._rows[ip].vlan for ip in ips if ip in self._rows
            )
            majority_vlan = vlans.most_common(1)[0][0] if vlans else None
            for ip in ips:
                row = self._rows.get(ip)
                if row is None:
                    issues.append(
                        Inconsistency(
                            kind="unknown",
                            ip=ip,
                            detail="discovered adapter not present in the configuration database",
                        )
                    )
                elif majority_vlan is not None and row.vlan != majority_vlan and len(vlans) > 1:
                    issues.append(
                        Inconsistency(
                            kind="misplaced",
                            ip=ip,
                            detail=(
                                f"grouped with adapters expected on vlan {majority_vlan} "
                                f"but expected on vlan {row.vlan}"
                            ),
                        )
                    )
        for ip, row in self._rows.items():
            if ip not in seen:
                issues.append(
                    Inconsistency(
                        kind="missing",
                        ip=ip,
                        detail=f"expected on vlan {row.vlan} ({row.node}) but never discovered",
                    )
                )
        return issues
