"""A request's timeouts, against the event-per-request implementation.

The issuer keeps one live timeout event (for the oldest request still out)
and a front end applies its Work timeouts lazily, before each access to its
pending table (docs/PROTOCOL.md §10). The oracle is the implementation that
scheduled a timeout event per send and per dispatch, kept here as
test-local subclasses: both are run on the same farm, with timeouts short
enough that requests retry, WorkDones arrive after their timeout, a retry
re-dispatches the same key to the same front end while the first
dispatch's timeout is still pending, and the dispatcher crashes and comes
back. Counters, SLO rows and the issuer's actions, each stamped with
``(now, firing_seq)``, must be equal. In both, a Work timeout belongs to
its dispatch: when a retry has re-dispatched the key, the first
dispatch's timeout leaves the retry's entry alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import DomainSpec, FarmSpec, build_farm
from repro.farm import requests
from repro.farm.requests import (
    SERVICE_TIME,
    FrontEndApp,
    Request,
    Response,
    TrafficSource,
    Work,
    WorkDone,
)
from repro.gulfstream import GSParams
from repro.net.addressing import IPAddress
from repro.net.packet import Frame
from repro.node.osmodel import OSParams
from repro.workload import traffic
from repro.workload.generators import constant_rate

from tests.workload.test_traffic import QUICK

PARAMS = GSParams(beacon_duration=1.5, beacon_interval=0.5, amg_stable_wait=1.5,
                  gsc_stable_wait=3.0, hb_interval=0.5, probe_timeout=0.5,
                  orphan_timeout=2.5, takeover_stagger=0.5,
                  suspect_retry_interval=0.5)


# ----------------------------------------------------------------------
# the oracle: one timeout event per send and per dispatch
# ----------------------------------------------------------------------
class EventPerRequestSource(TrafficSource):
    """The issuer that scheduled a timeout per send and cancelled it on
    the response."""

    def _send(self, req_id, domain):
        issued_at, _, retries_left, _ = self._inflight[req_id]
        fes = self.front_ends[domain]
        target = fes[self._rr[domain] % len(fes)]
        self._rr[domain] += 1
        ev = self.sim.schedule(self.timeout, self._on_timeout, req_id)
        self._inflight[req_id] = (issued_at, domain, retries_left, ev)
        self.nic.send(target, Request(req_id=req_id, client=self.nic.ip), size=256)

    def _on_timeout(self, req_id):
        entry = self._inflight.pop(req_id, None)
        if entry is None:
            return
        issued_at, domain, retries_left, _ = entry
        if retries_left > 0:
            self._m_retry[domain].inc()
            self._inflight[req_id] = (issued_at, domain, retries_left - 1, None)
            self._send(req_id, domain)
        else:
            self._m_fail[domain].inc()

    def _on_frame(self, frame):
        msg = frame.payload
        if not isinstance(msg, Response):
            return
        entry = self._inflight.pop(msg.req_id, None)
        if entry is None:
            return
        issued_at, domain, _, ev = entry
        if ev is not None:
            ev.cancel()
        self._m_done[domain].inc()
        self._m_latency.observe(self.sim.now - issued_at)


class EventPerDispatchFrontEnd(FrontEndApp):
    """The front end that scheduled a Work timeout per dispatch. It also
    counts the cases the lazy form must get right (the oracle's own
    bookkeeping; nothing it counts feeds back into the run)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatches = {}  # key -> how many times it was dispatched here
        self.redispatched = 0  # a key dispatched again while still pending
        self.late_work_done = 0  # a WorkDone whose key had timed out
        self.superseded_timeouts = 0  # a timeout that found a later dispatch

    def _on_dispatch_frame(self, frame):
        msg = frame.payload
        if not isinstance(msg, Request):
            return
        self._m_arrivals.inc()
        workers = self._workers()
        if not workers:
            self.served_locally += 1
            self.dispatch_nic.send(
                msg.client, Response(req_id=msg.req_id, server=self.dispatch_nic.ip),
                size=256,
            )
            return
        worker = workers[self._rr % len(workers)]
        self._rr += 1
        self.forwarded += 1
        key = (msg.client, msg.req_id)
        self.redispatched += key in self._pending
        self.dispatches[key] = n = self.dispatches.get(key, 0) + 1
        self._pending[key] = True
        self.internal_nic.send(worker, Work(req_id=msg.req_id, client=msg.client,
                                            front_end=self.internal_nic.ip), size=128)
        self.sim.schedule(self.work_timeout, self._work_timeout, key, n)

    def _on_internal_frame(self, frame):
        msg = frame.payload
        if isinstance(msg, Work):
            self.sim.schedule(SERVICE_TIME, self._serve_peer, msg)
            return
        if not isinstance(msg, WorkDone):
            return
        if self._pending.pop((msg.client, msg.req_id), None) is None:
            self.late_work_done += 1
            return
        self.dispatch_nic.send(
            msg.client, Response(req_id=msg.req_id, server=self.dispatch_nic.ip), size=256
        )

    def _work_timeout(self, key, n):
        if key not in self._pending:
            return
        if self.dispatches[key] > n:
            self.superseded_timeouts += 1  # the key is a later dispatch's now
            return
        del self._pending[key]


# ----------------------------------------------------------------------
# what both are compared on
# ----------------------------------------------------------------------
class _Logged:
    """Counts of one issuer counter, each ``inc`` also logged with the
    engine key of the event that made it."""

    def __init__(self, counter, sim, log, what, domain):
        self.counter, self.sim, self.log, self.what, self.domain = counter, sim, log, what, domain

    def inc(self, amount=1):
        self.log.append((self.sim.now, self.sim.firing_seq, self.what, self.domain))
        self.counter.inc(amount)


def _logging(cls, log):
    """``cls`` with every send and every counter bump logged to ``log``."""

    class Logging(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for what in ("req", "done", "fail", "retry"):
                counters = getattr(self, f"_m_{what}")
                for domain, counter in counters.items():
                    counters[domain] = _Logged(counter, self.sim, log, what, domain)

        def _send(self, req_id, domain):
            sim = self.sim
            log.append((sim.now, sim.firing_seq, "send", req_id, self._rr[domain]))
            super()._send(req_id, domain)

    return Logging


def _one_front_end_farm(seed):
    """One domain behind one front end: a retry re-dispatches its key there."""
    spec = FarmSpec(domains=[DomainSpec("acme", 1, 2)], dispatchers=1,
                    management_nodes=1, spare_nodes=0)
    return build_farm(spec, seed=seed, params=PARAMS, os_params=OSParams.fast())


def _deploy(farm, front_end_cls, timeout, work_timeout):
    """``deploy_service`` with ``front_end_cls`` front ends that give up on
    Work after ``work_timeout``; returns their addresses and the apps."""
    apps = []

    def front_end(*args, **kwargs):
        kwargs["work_timeout"] = work_timeout
        apps.append(front_end_cls(*args, **kwargs))
        return apps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(requests, "FrontEndApp", front_end)
        fe_ips = requests.deploy_service(farm, request_timeout=timeout)
    return fe_ips, apps


def _service_run(source_cls, front_end_cls, seed, timeout, work_factor, retries, rate):
    """A stream at ``rate`` with a dispatcher crash and restart in the
    middle; Work times out after ``work_factor`` × the issuer's timeout.
    Returns what the run did and the front-end applications."""
    log = []
    farm = _one_front_end_farm(seed)
    fe_ips, apps = _deploy(farm, front_end_cls, timeout, timeout * work_factor)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    sim = farm.sim
    source = _logging(source_cls, log)(
        farm.hosts["dispatch-0"], fe_ips, constant_rate("acme", rate),
        start_at=sim.now, timeout=timeout, max_retries=retries,
    )
    dispatcher = farm.hosts["dispatch-0"]
    sim.run(until=sim.now + 2.0)
    dispatcher.crash()
    sim.run(until=sim.now + 0.5)
    dispatcher.restart()
    sim.run(until=sim.now + 2.0)
    counters = {
        name: sim.metrics.counter(f"traffic.{name}", domain="acme").value
        for name in ("requests", "completed", "failed", "retried")
    }
    latency = sim.metrics.histogram("traffic.latency_s")
    outcome = dict(
        log=log,
        counters=counters,
        latency=(latency.count, latency.percentile(50), latency.percentile(99)),
        in_flight=sorted(source._inflight),
        trace=dict(sim.trace.counters),
        served=[(app.forwarded, app.served_locally) for app in apps],
    )
    return outcome, apps


def _compare(seed, timeout, work_factor, retries=2, rate=200.0):
    old, apps = _service_run(EventPerRequestSource, EventPerDispatchFrontEnd,
                             seed, timeout, work_factor, retries, rate)
    new, _ = _service_run(TrafficSource, FrontEndApp, seed, timeout, work_factor, retries, rate)
    assert new == old
    return old, apps


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_every_timeout_case_occurs_and_matches_the_oracle():
    """A Work timeout longer than the issuer's: a retry re-dispatches a key
    whose first timeout is still pending, and that timeout must then leave
    the second dispatch pending."""
    old, apps = _compare(seed=3, timeout=0.008, work_factor=1.5)
    counters = old["counters"]
    assert counters["retried"] > 50 and counters["failed"] > 20
    assert counters["completed"] > 100
    assert sum(app.redispatched for app in apps) > 0
    assert sum(app.late_work_done for app in apps) > 0
    assert sum(app.superseded_timeouts for app in apps) > 0
    assert any(entry[2] == "fail" for entry in old["log"])


@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    timeout=st.sampled_from([0.004, 0.006, 0.008, 0.012, 0.2]),
    work_factor=st.sampled_from([0.25, 0.5, 1.5, 3.0]),
    retries=st.integers(min_value=0, max_value=2),
    rate=st.sampled_from([3.0, 200.0]),
)
def test_timeouts_match_the_oracle(seed, timeout, work_factor, retries, rate):
    _compare(seed, timeout, work_factor, retries, rate)


def test_a_retry_after_the_first_work_timeout_is_served():
    """One request at a time: the Work timeout (half the issuer's) is due
    before the retry re-dispatches the key, with nothing in between to
    apply it, so the dispatch itself must drop the stale key first."""
    old, apps = _compare(seed=5, timeout=0.008, work_factor=0.5, rate=3.0)
    assert old["counters"]["retried"] > 0 and old["counters"]["completed"] > 0
    assert sum(app.late_work_done for app in apps) > 0


def _same_instant_script(front_end_cls):
    """Drive one front end by hand at a single instant ``T`` with a zero
    Work timeout, so each timeout is due at ``T`` itself and only its seq
    orders it against the handlers running then. Returns the req ids
    answered, with their times."""
    farm = _one_front_end_farm(seed=2)
    _fe_ips, apps = _deploy(farm, front_end_cls, timeout=1.0, work_timeout=0.0)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    sim, app = farm.sim, apps[0]
    answered = []
    app.dispatch_nic.send = lambda dst, msg, size: answered.append((sim.now, msg.req_id))
    client, worker, fe = IPAddress("10.200.0.1"), IPAddress("10.200.0.2"), app.internal_nic.ip

    def request(req_id):
        app._on_dispatch_frame(Frame(client, app.dispatch_nic.ip, Request(req_id, client)))

    def work_done(req_id):
        app._on_internal_frame(Frame(worker, fe, WorkDone(req_id, client, worker)))

    def dispatch_then_answer(req_id):
        request(req_id)  # reserves the timeout's seq ...
        sim.schedule(0.0, work_done, req_id)  # ... before this event's

    at = sim.now + 1.0
    sim.schedule_at(at, request, 1)  # timeout (T, s1), s1 taken when this runs
    sim.schedule_at(at, work_done, 1)  # keyed before s1: answered
    sim.schedule_at(at, dispatch_then_answer, 2)  # keyed after s2: timed out
    sim.run(until=at + 0.5)
    return answered, at


def _redispatch_script(front_end_cls):
    """Drive one front end by hand with the Work timeout (12 ms) longer than
    the issuer's (8 ms): a request at ``T``, its retry at ``T + 8 ms``, and
    one WorkDone at ``T + 15 ms`` — after the first dispatch's timeout,
    before the retry's. Work goes nowhere, so that WorkDone is the only
    one. Returns the req ids answered, with their times."""
    farm = _one_front_end_farm(seed=2)
    _fe_ips, apps = _deploy(farm, front_end_cls, timeout=0.008, work_timeout=0.012)
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    sim, app = farm.sim, apps[0]
    answered = []
    app.dispatch_nic.send = lambda dst, msg, size: answered.append((sim.now, msg.req_id))
    app.internal_nic.send = lambda dst, msg, size: None
    client, worker, fe = IPAddress("10.200.0.1"), IPAddress("10.200.0.2"), app.internal_nic.ip

    def request():
        app._on_dispatch_frame(Frame(client, app.dispatch_nic.ip, Request(1, client)))

    def work_done():
        app._on_internal_frame(Frame(worker, fe, WorkDone(1, client, worker)))

    at = sim.now + 1.0
    sim.schedule_at(at, request)
    sim.schedule_at(at + 0.008, request)
    sim.schedule_at(at + 0.015, work_done)
    sim.run(until=at + 0.5)
    return answered, at


def test_a_retry_outlives_the_first_dispatchs_work_timeout():
    answered, at = _redispatch_script(FrontEndApp)
    assert answered == [(at + 0.015, 1)]
    assert _redispatch_script(EventPerDispatchFrontEnd) == (answered, at)


def test_a_work_timeout_due_now_is_ordered_by_its_seq():
    old, at = _same_instant_script(EventPerDispatchFrontEnd)
    assert old == [(at, 1)]
    assert _same_instant_script(FrontEndApp) == (old, at)


def test_traffic_rows_match_the_oracle():
    """The SLO rows of a traffic case under the ``mixed`` chaos mix."""
    rows = []
    for source_cls, front_end_cls in (
        (EventPerRequestSource, EventPerDispatchFrontEnd), (TrafficSource, FrontEndApp)
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traffic, "TrafficSource", source_cls)
            mp.setattr(requests, "FrontEndApp", front_end_cls)
            rows.append(traffic.run_traffic_case(case=0, seed=7, mix="mixed", **QUICK))
    assert rows[0]["requests"]["retried"] > 0
    assert rows[1] == rows[0]
