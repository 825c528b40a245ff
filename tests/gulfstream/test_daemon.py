"""Daemon lifecycle, report routing, and restart semantics."""

from repro.gulfstream.adapter_proto import AdapterState
from repro.net.addressing import IPAddress

from tests.conftest import FAST, make_flat_farm, run_stable

HB = FAST.derive(hb_interval=0.5, probe_timeout=0.5, orphan_timeout=3.0,
                 takeover_stagger=0.5)


def test_daemon_runs_one_protocol_per_adapter():
    farm = make_flat_farm(3, seed=1, params=HB)
    run_stable(farm)
    for name, d in farm.daemons.items():
        assert set(d.protocols) == {0, 1}
        assert d.admin_protocol is d.protocols[0]


def test_start_is_idempotent():
    farm = make_flat_farm(3, seed=2, params=HB)
    d = farm.daemons["node-0"]
    d.start()  # second call (farm.start already called)
    run_stable(farm)
    assert len(d.protocols) == 2


def test_stop_silences_node():
    farm = make_flat_farm(4, seed=3, params=HB)
    run_stable(farm)
    d = farm.daemons["node-2"]
    d.stop()
    assert all(p.state is AdapterState.STOPPED for p in d.protocols.values())
    assert all(n.handler is None for n in farm.hosts["node-2"].adapters)


def test_stop_start_cycle_rejoins():
    farm = make_flat_farm(4, seed=4, params=HB)
    run_stable(farm)
    d = farm.daemons["node-2"]
    t0 = farm.sim.now
    d.stop()
    farm.sim.run(until=t0 + 15)  # old groups recommit without node-2
    d.start()
    farm.sim.run(until=t0 + 60)
    for p in d.protocols.values():
        assert p.view is not None and p.view.size == 4


def test_protocol_for_lookup():
    farm = make_flat_farm(2, seed=5, params=HB)
    run_stable(farm)
    d = farm.daemons["node-0"]
    ip = farm.hosts["node-0"].adapters[1].ip
    assert d.protocol_for(ip).nic.index == 1
    assert d.protocol_for(IPAddress("9.9.9.9")) is None


def test_is_gsc_flag_tracks_leadership():
    farm = make_flat_farm(4, seed=6, params=HB, eligible=(0,))
    run_stable(farm)
    assert farm.daemons["node-0"].is_gsc
    assert sum(1 for d in farm.daemons.values() if d.is_gsc) == 1


def test_send_report_fails_before_admin_group_forms():
    from repro.gulfstream.messages import MembershipReport

    farm = make_flat_farm(3, seed=7, params=HB)
    d = farm.daemons["node-1"]
    # before running the sim at all: no admin view yet
    report = MembershipReport(
        leader=IPAddress("10.0.0.1"), group_key="x@1", epoch=1, kind="full"
    )
    assert d.send_report(report) is False


def test_reports_lost_when_gsc_briefly_absent_are_traced():
    farm = make_flat_farm(4, seed=8, params=HB)
    run_stable(farm)
    gsc_daemon = next(d for d in farm.daemons.values() if d.is_gsc)
    gsc_daemon.central.deactivate()
    from repro.gulfstream.messages import MembershipReport

    gsc_daemon.on_report_frame(
        gsc_daemon.admin_protocol,
        MembershipReport(leader=IPAddress("10.0.0.1"), group_key="x@1", epoch=1, kind="full"),
    )
    assert farm.sim.trace.count("gs.report.lost") == 1


def test_application_payload_reaches_the_app_handler_whatever_its_class_name():
    """Protocol kinds are told apart by type, not by class name: an
    application's own ``ReportAck`` or ``AggregatedReport`` is application
    traffic and goes to the adapter's application handler."""

    class ReportAck:
        seq = 1

    class AggregatedReport:
        reports = ()

    farm = make_flat_farm(2, seed=9, params=HB)
    run_stable(farm)
    sender, receiver = (farm.hosts[n].adapters[1] for n in ("node-0", "node-1"))
    got = []
    receiver.app_handler = got.append
    payloads = [ReportAck(), AggregatedReport()]
    for payload in payloads:
        sender.send(receiver.ip, payload)
    farm.sim.run(until=farm.sim.now + 1.0)
    assert [frame.payload for frame in got] == payloads
