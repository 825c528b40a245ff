"""The operator-console summary renderer."""

from repro.analysis import summarize_farm
from repro.analysis.report import RECENT_NOTES

from tests.conftest import make_flat_farm, run_stable


def test_summary_covers_all_sections():
    farm = make_flat_farm(3, seed=1)
    run_stable(farm)
    text = summarize_farm(farm)
    for heading in ("GulfStream Central", "Adapter Membership Groups",
                    "Component status", "notifications", "Segment traffic"):
        assert heading in text
    assert "node-0" in text and "vlan1" in text


def test_summary_reflects_failures():
    farm = make_flat_farm(4, seed=2)
    run_stable(farm)
    farm.hosts["node-1"].crash()
    farm.sim.run(until=farm.sim.now + 15)
    text = summarize_farm(farm)
    assert "node-1           DOWN" in text
    assert "node_failed" in text


def test_summary_before_discovery():
    farm = make_flat_farm(3, seed=3)
    text = summarize_farm(farm)  # nothing has run yet
    assert "no active instance" in text


def test_recent_notes_limit():
    farm = make_flat_farm(5, seed=4)
    run_stable(farm)
    for i in range(4):
        farm.hosts[f"node-{i}"].crash()
        farm.sim.run(until=farm.sim.now + 12)
    assert len(farm.bus.history) > RECENT_NOTES
    text = summarize_farm(farm)
    title = f"Last {RECENT_NOTES} notifications"
    assert title in text
    notes_section = text.split(title)[1].split("Segment traffic")[0]
    payload_lines = [line for line in notes_section.splitlines()
                     if line.strip().startswith("[")]
    assert len(payload_lines) == RECENT_NOTES
