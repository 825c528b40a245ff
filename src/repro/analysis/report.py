"""Human-readable run summaries.

:func:`summarize_farm` renders a finished (or running) farm's state the way
an operator console would: GSC identity and stability, per-AMG membership,
component statuses, recent notifications, and per-segment traffic. The
examples use it; it is also handy in a REPL while exploring scenarios.
"""

from __future__ import annotations

from typing import List

__all__ = ["summarize_farm"]

#: how many of the latest notifications a summary lists
RECENT_NOTES = 10


def _section(title: str) -> str:
    return f"\n{title}\n{'-' * len(title)}"


def summarize_farm(farm) -> str:
    """A multi-section plain-text summary of a farm's current state."""
    lines: List[str] = []
    sim = farm.sim
    lines.append(
        f"t={sim.now:.2f}s  nodes={len(farm.hosts)}  "
        f"vlans={len(farm.fabric.segments)}  switches={len(farm.fabric.switches)}"
    )

    gsc = farm.gsc()
    gsc_host = farm.gsc_host()
    lines.append(_section("GulfStream Central"))
    if gsc is None:
        lines.append("  (no active instance — discovery in progress?)")
    else:
        stable = f"{gsc.stable_time:.2f}s" if gsc.stable_time is not None else "not yet"
        lines.append(
            f"  host={gsc_host.name}  stable={stable}  "
            f"adapters={len(gsc.adapters)}  groups={len(gsc.groups)}  "
            f"reports={gsc.reports_received}"
        )
        lines.append(_section("Adapter Membership Groups"))
        for key, group in sorted(gsc.groups.items()):
            members = ", ".join(sorted((str(m) for m in group.members), key=str))
            lines.append(
                f"  {key:<18} leader={group.leader!s:<14} "
                f"size={len(group.members):<3} [{members}]"
            )
        lines.append(_section("Component status (GSC inference)"))
        for name in sorted(farm.hosts):
            status = gsc.node_status(name)
            word = {True: "up", False: "DOWN", None: "unknown"}[status]
            lines.append(f"  node   {name:<16} {word}")
        for sw_name in sorted(farm.fabric.switches):
            status = gsc.switch_status(sw_name)
            word = {True: "up", False: "DOWN", None: "unknown"}[status]
            lines.append(f"  switch {sw_name:<16} {word}")

    if farm.bus.history:
        lines.append(_section(f"Last {RECENT_NOTES} notifications"))
        for note in farm.bus.history[-RECENT_NOTES:]:
            lines.append(f"  {note}")

    lines.append(_section("Segment traffic"))
    for vlan, seg in sorted(farm.fabric.segments.items()):
        lines.append(
            f"  vlan{vlan:<5} members={len(seg.members):<4} "
            f"frames={seg.frames_sent:<8} bytes={seg.bytes_sent:<10} "
            f"lost={seg.frames_lost}"
        )
    return "\n".join(lines)
