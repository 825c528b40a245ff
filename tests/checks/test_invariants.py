"""Unit tests for the invariant monitor: windows, clean runs, latency
resolution, and the mutation sanity checks (a deliberately broken build
must be caught)."""

from repro.checks import CheckWindows, InvariantMonitor, Violation
from repro.gulfstream.adapter_proto import AdapterProtocol
from repro.gulfstream.central import GulfStreamCentral

from tests.conftest import FAST, make_flat_farm, run_stable

# the detection-test parameterization used across tests/gulfstream
HB = FAST.derive(hb_interval=0.5, probe_timeout=0.5, orphan_timeout=3.0,
                 suspect_retry_interval=0.5, takeover_stagger=0.5)


def _monitored_farm(n=5, seed=11):
    farm = make_flat_farm(n, seed=seed, params=HB)
    monitor = InvariantMonitor(farm)
    run_stable(farm)
    monitor.start()
    return farm, monitor


# ----------------------------------------------------------------------
# CheckWindows
# ----------------------------------------------------------------------
def test_windows_ordering():
    w = CheckWindows.from_params(HB)
    assert 0 < w.detection_bound < w.obligation_bound
    assert w.settle_time > w.obligation_bound
    assert w.sweep_interval <= 1.0


def test_violation_as_dict_rounds_time():
    v = Violation(1.23456789, "single_leader", "vlan2", "two leaders")
    d = v.as_dict()
    assert d["time"] == 1.234568
    assert d["invariant"] == "single_leader"


# ----------------------------------------------------------------------
# monitor behaviour
# ----------------------------------------------------------------------
def test_clean_run_has_checks_and_no_violations():
    farm, monitor = _monitored_farm()
    farm.sim.run(until=farm.sim.now + 10.0)
    monitor.finalize()
    assert monitor.ok, monitor.violations
    s = monitor.summary()
    assert s["checks"]["single_leader"] > 0
    assert s["checks"]["membership_agreement"] > 0
    assert s["checks"]["no_lost_adapter"] > 0
    assert s["checks"]["verify_topology"] > 0
    assert s["latencies"] == []


def test_crash_latency_resolved_within_bound():
    farm, monitor = _monitored_farm()
    t0 = farm.sim.now
    farm.hosts["node-2"].crash()
    farm.sim.run(until=t0 + monitor.windows.settle_time)
    monitor.finalize()
    assert monitor.ok, monitor.violations
    # both of node-2's adapters owed a detection, both were delivered
    assert len(monitor.latencies) == 2
    assert all(0 < lat <= monitor.windows.detection_bound
               for lat in monitor.latencies)


def test_repair_before_detection_waives_the_obligation():
    farm, monitor = _monitored_farm()
    t0 = farm.sim.now
    nic = farm.hosts["node-3"].adapters[1]
    nic.fail()
    farm.sim.run(until=t0 + 0.2)
    nic.repair()
    farm.sim.run(until=t0 + monitor.windows.settle_time)
    monitor.finalize()
    assert monitor.ok, monitor.violations


# ----------------------------------------------------------------------
# mutation sanity: a broken build must be caught
# ----------------------------------------------------------------------
def test_mutated_gsc_dropping_removals_is_caught(monkeypatch):
    """GSC that never processes adapter removals -> missed detections."""
    monkeypatch.setattr(
        GulfStreamCentral, "_adapter_removed", lambda self, ip, key: None
    )
    farm, monitor = _monitored_farm()
    t0 = farm.sim.now
    farm.hosts["node-2"].crash()
    farm.sim.run(until=t0 + monitor.windows.settle_time)
    monitor.finalize()
    kinds = {v.invariant for v in monitor.violations}
    assert "detection_latency" in kinds, monitor.summary()


def test_mutated_merge_suppression_is_caught(monkeypatch):
    """Leaders that never merge -> persistent multi-leader islands."""
    monkeypatch.setattr(
        AdapterProtocol, "_request_merge", lambda self, beacon: None
    )
    farm, monitor = _monitored_farm()
    seg = farm.fabric.segments[2]
    members = sorted(seg.members, key=int)
    t0 = farm.sim.now
    seg.partition([[ip] for ip in members[:2]])
    farm.sim.run(until=t0 + 15.0)
    seg.heal()
    farm.sim.run(until=farm.sim.now + 2 * monitor.windows.merge_bound + 5.0)
    monitor.stop()
    kinds = {v.invariant for v in monitor.violations}
    assert "single_leader" in kinds, monitor.summary()
