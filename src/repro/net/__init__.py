"""Simulated switched-Ethernet network substrate.

This package stands in for the paper's physical testbed: Cisco-6509-style
switches with per-port VLAN assignment, one broadcast segment per VLAN,
network adapters (NICs) with the distinct failure modes the paper reasons
about (send-only failure, receive-only failure, full failure), a fixed
per-receiver loss probability and latency per segment, and an SNMP-like
management console through which GulfStream Central reconfigures VLAN
membership.

The semantics the GulfStream protocols rely on are modelled exactly:

* adapters on the same VLAN can multicast/unicast to each other;
* adapters on different VLANs cannot communicate at all (no routing);
* changing a port's VLAN instantly moves the adapter's broadcast domain;
* a failed switch silences every adapter wired to it.
"""

from repro.net.addressing import IPAddress, MULTICAST
from repro.net.packet import Frame
from repro.net.loss import LinkQuality, PerfectLink
from repro.net.nic import NIC, NicState
from repro.net.router import Router
from repro.net.switch import Port, Switch
from repro.net.segment import Segment
from repro.net.fabric import Fabric
from repro.net.snmp import SnmpError, SwitchConsole

__all__ = [
    "Fabric",
    "Frame",
    "IPAddress",
    "LinkQuality",
    "MULTICAST",
    "NIC",
    "NicState",
    "PerfectLink",
    "Port",
    "Router",
    "Segment",
    "SnmpError",
    "Switch",
    "SwitchConsole",
]
