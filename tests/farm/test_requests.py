"""The request-level workload layer (§1's hosted traffic)."""

import pytest

from repro.farm import DomainSpec, FarmSpec, build_farm
from repro.farm.requests import BackEndApp, TrafficSource, deploy_service
from repro.gulfstream import GSParams
from repro.node.osmodel import OSParams
from repro.workload.generators import Arrival, constant_rate

PARAMS = GSParams(beacon_duration=1.5, beacon_interval=0.5, amg_stable_wait=1.5,
                  gsc_stable_wait=3.0, hb_interval=0.5, probe_timeout=0.5,
                  orphan_timeout=2.5, takeover_stagger=0.5,
                  suspect_retry_interval=0.5)
TIMEOUT = 2.0


def issuer(farm, front_ends, events, node="dispatch-0"):
    return TrafficSource(farm.hosts[node], front_ends, events,
                         start_at=farm.sim.now, timeout=TIMEOUT, max_retries=1)


def service_farm(seed=1, front_ends=2, back_ends=2, spares=0, rate=50.0):
    spec = FarmSpec(
        domains=[DomainSpec("acme", front_ends, back_ends)],
        dispatchers=1, management_nodes=1, spare_nodes=spares,
    )
    farm = build_farm(spec, seed=seed, params=PARAMS, os_params=OSParams.fast())
    fe_ips = deploy_service(farm, request_timeout=TIMEOUT)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    return farm, issuer(farm, fe_ips, constant_rate("acme", rate))


def count(farm, name, domain="acme"):
    """One of the issuer's ``traffic.<name>{domain}`` registry counters."""
    return farm.sim.metrics.counter(f"traffic.{name}", domain=domain).value


def failures_during(farm, seconds):
    """Run ``seconds`` more and return how many requests failed meanwhile."""
    before = count(farm, "failed")
    farm.sim.run(until=farm.sim.now + seconds)
    return count(farm, "failed") - before


def test_healthy_service_completes_everything():
    farm, _ = service_farm(seed=1)
    t0 = farm.sim.now
    farm.sim.run(until=t0 + 20.0)
    issued, completed = count(farm, "requests"), count(farm, "completed")
    assert issued == pytest.approx(50 * 20, rel=0.05)
    assert count(farm, "failed") == 0
    assert completed >= issued - 2  # in flight


def test_latency_is_sane():
    farm, _ = service_farm(seed=2)
    farm.sim.run(until=farm.sim.now + 20.0)
    latency = farm.sim.metrics.histogram("traffic.latency_s")
    # dispatch hop + work hop + 5ms service + return hops
    assert 0.004 < latency.percentile(50) < 0.05
    assert latency.percentile(99) < 0.2


def test_back_end_crash_brief_interruption_then_recovery():
    farm, _ = service_farm(seed=3, back_ends=3)
    farm.sim.run(until=farm.sim.now + 10.0)
    farm.hosts["acme-be-1"].crash()
    # bounded blip: the dead worker serves ~1/4 of forwards for the few
    # seconds until GulfStream recommits the AMG and directories update
    assert failures_during(farm, 20.0) < 20
    assert failures_during(farm, 20.0) == 0  # fully recovered


def test_managed_move_cheaper_than_unmanaged_crash_window():
    farm, _ = service_farm(seed=4, back_ends=3, spares=1)
    farm.sim.run(until=farm.sim.now + 10.0)
    # managed move out
    farm.reconfig().move_node(farm.hosts["acme-be-2"],
                              {farm.domain_vlans["acme"]: 99})
    assert failures_during(farm, 25.0) < 10
    # spare joins: zero interruption (pure capacity add)
    farm.reconfig().move_node(farm.hosts["spare-0"],
                              {99: farm.domain_vlans["acme"]})
    assert failures_during(farm, 25.0) == 0


def test_moved_in_spare_actually_serves():
    farm, _ = service_farm(seed=5, back_ends=1, spares=1)
    # deploy_service installed a BackEndApp on the spare
    host = farm.hosts["spare-0"]
    assert host.adapters[1].app_handler is not None
    farm.sim.run(until=farm.sim.now + 5.0)
    farm.reconfig().move_node(host, {99: farm.domain_vlans["acme"]})
    farm.sim.run(until=farm.sim.now + 40.0)
    # find the app through the handler's bound instance
    spare_app = host.adapters[1].app_handler.__self__
    assert isinstance(spare_app, BackEndApp)
    assert spare_app.served > 0


def test_front_end_serves_alone_when_isolated():
    """A domain of one front end still answers (serve-locally path)."""
    farm, _ = service_farm(seed=6, front_ends=1, back_ends=0)
    farm.sim.run(until=farm.sim.now + 10.0)
    assert count(farm, "failed") == 0
    assert count(farm, "completed") > 0


def test_dispatcher_requires_front_ends():
    farm, _ = service_farm(seed=7)
    with pytest.raises(ValueError):
        issuer(farm, {"acme": []}, constant_rate("acme", 50.0))


def test_failover_rotates_to_the_next_front_end():
    """A dead front end only costs its own round-robin turns: retries fail
    over to the surviving front end and complete there.

    The rate is slower than the retry timeout so at most one request is in
    flight: the shared round-robin then deterministically rotates every
    retry onto the *other* front end. The only loss allowed is the brief
    blip while the survivor's AMG view still lists the crashed peer as a
    worker (GulfStream's detection window); after that, zero failures."""
    farm, source = service_farm(seed=9, front_ends=2, back_ends=2, rate=0.4)
    farm.sim.run(until=farm.sim.now + 10.0)
    farm.hosts["acme-fe-1"].crash()
    assert failures_during(farm, 6.0) <= 2   # detection-window blip only
    assert failures_during(farm, 24.0) == 0
    assert count(farm, "retried") >= 3  # the dead front end's turns, each failed over
    in_flight = len(source._inflight)
    assert (count(farm, "completed") + count(farm, "failed") + in_flight
            == count(farm, "requests"))


def test_retry_fails_over_inside_the_requests_own_domain():
    """Two domains behind one issuer, one dead front end in one of them:
    every retry lands on the surviving front end *of that domain*, and the
    healthy domain's round-robin neither retries nor skips a turn."""
    spec = FarmSpec(
        domains=[DomainSpec("acme", 2, 2), DomainSpec("globex", 2, 2)],
        dispatchers=1, management_nodes=1, spare_nodes=0,
    )
    farm = build_farm(spec, seed=13, params=PARAMS, os_params=OSParams.fast())
    fe_ips = deploy_service(farm, request_timeout=TIMEOUT)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    farm.hosts["acme-fe-1"].crash()
    farm.sim.run(until=farm.sim.now + 10.0)  # past the detection window
    # one request every 2.5 s (slower than the timeout), domains alternating
    events = [Arrival(2.5 * k, ("acme", "globex")[k % 2]) for k in range(16)]
    source = issuer(farm, fe_ips, events)
    farm.sim.run(until=farm.sim.now + 50.0)
    for domain in ("acme", "globex"):
        assert count(farm, "requests", domain) == 8
        assert count(farm, "completed", domain) == 8
    # acme's first request takes the living front end's turn; every later
    # one draws the dead front end (its predecessor's retry used up the
    # living one's turn) and fails over. globex never retries.
    assert count(farm, "retried", "acme") == 7
    assert count(farm, "retried", "globex") == 0
    assert source._rr == {"acme": 8 + 7, "globex": 8}
    # no acme retry was answered by a globex front end: each domain's front
    # ends saw exactly the sends addressed to their living members
    arrivals = farm.sim.metrics.counter
    assert arrivals("traffic.fe.requests", domain="acme").value == 8
    assert arrivals("traffic.fe.requests", domain="globex").value == 8


def test_front_end_crash_failures_are_bounded_under_load():
    """At full rate requests overlap, so the round-robin retry target is
    effectively random: a dead front end (which GulfStream cannot heal at
    the dispatcher — its list is static) costs at most its traffic share
    squared, never the whole service."""
    farm, _ = service_farm(seed=9, front_ends=2, back_ends=2)
    farm.sim.run(until=farm.sim.now + 10.0)
    farm.hosts["acme-fe-1"].crash()
    window_issued = 50 * 20
    # ~1/2 hit the dead front end and retry; ~1/2 of those land dead again
    assert failures_during(farm, 20.0) < window_issued * 0.35
    assert count(farm, "retried") > 0
    assert count(farm, "completed") > window_issued * 0.5


def test_request_ids_are_per_dispatcher_not_global():
    """Regression: ids came from a module-global counter, so a second
    dispatcher (or a second farm in the same process) started mid-sequence
    depending on whatever ran before."""
    farm1, _ = service_farm(seed=10)
    farm1.sim.run(until=farm1.sim.now + 5.0)
    assert count(farm1, "requests") > 0
    _, source2 = service_farm(seed=11)
    # the fresh issuer's sequence must restart at 1 even though hundreds
    # of ids were consumed in this process already
    assert next(source2._req_ids) == 1


def test_two_dispatchers_sharing_front_ends_do_not_collide():
    """Regression: the front end keyed its pending table by bare req_id.
    Two dispatchers issue overlapping id sequences (1, 2, 3, ...) to the
    same front ends; one dispatcher's WorkDone then popped the other's
    pending entry, leaking its request into a timeout. The key is now
    (client, req_id). This test fails before that fix.

    Both issuers fire at identical instants with identical ids — the
    hardest case. They share one registry, hence one set of counters."""
    spec = FarmSpec(
        domains=[DomainSpec("acme", 2, 2)],
        dispatchers=2, management_nodes=1, spare_nodes=0,
    )
    farm = build_farm(spec, seed=12, params=PARAMS, os_params=OSParams.fast())
    fe_ips = deploy_service(farm, request_timeout=TIMEOUT)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    sources = [issuer(farm, fe_ips, constant_rate("acme", 50.0), node=node)
               for node in ("dispatch-0", "dispatch-1")]
    farm.sim.run(until=farm.sim.now + 20.0)
    failed = count(farm, "failed")
    assert failed == 0, f"cross-dispatcher collisions: {failed} failures"
    assert count(farm, "retried") == 0
    for source in sources:
        assert next(source._req_ids) > 500
    in_flight = sum(len(source._inflight) for source in sources)
    assert count(farm, "completed") + in_flight == count(farm, "requests")


def test_stats_accounting_consistent():
    farm, source = service_farm(seed=8)
    farm.sim.run(until=farm.sim.now + 15.0)
    farm.hosts["acme-be-0"].crash()
    farm.sim.run(until=farm.sim.now + 30.0)
    completed = count(farm, "completed")
    # nothing double-counted: completions + failures + in-flight == issued
    assert (completed + count(farm, "failed") + len(source._inflight)
            == count(farm, "requests"))
    assert farm.sim.metrics.histogram("traffic.latency_s").count == completed


def test_arrivals_at_a_crashed_dispatcher_are_issued_and_failed():
    """Regression: an arrival that found the issuer's host crashed counted
    as failed but never as issued, so ``completed + failed`` exceeded
    ``requests`` and availability (completed / issued) ignored the outage."""
    farm, source = service_farm(seed=14)
    farm.sim.run(until=farm.sim.now + 5.0)
    farm.hosts["dispatch-0"].crash()
    farm.sim.run(until=farm.sim.now + 3.0)
    farm.hosts["dispatch-0"].restart()
    farm.sim.run(until=farm.sim.now + 12.0)
    issued, completed, failed = (count(farm, n) for n in ("requests", "completed", "failed"))
    assert failed >= 50 * 3  # every arrival of the outage
    assert completed + failed + len(source._inflight) == issued
    assert completed / issued < 1.0
