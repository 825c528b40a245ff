"""Request-level workload: measuring "minimal service interruption".

§1 of the paper motivates GulfStream with hosted web traffic: "Requests
flowing into the farm go through request dispatchers ... which distribute
them to the appropriate servers within each of the domains", and the whole
point of dynamic reconfiguration is that it "must be accomplished with
minimal service interruption".

This module puts actual request traffic on the simulated farm so that
claim can be measured (``benchmarks/bench_service_interruption.py``, the
``traffic`` workload of ``benchmarks/e2e``):

* a :class:`TrafficSource` runs on a dispatcher node: for every arrival of
  the event stream it is fed it sends one request to a front end of the
  arrival's domain over the dispatcher VLAN (round-robin with
  retry-on-timeout failover), and it keeps the score in the metrics
  registry;
* a :class:`FrontEndApp` on each front end forwards work to a back-end
  server over the domain-internal VLAN — choosing workers from its
  adapter's *live GulfStream AMG view*, which is exactly how membership
  quality turns into service quality;
* a :class:`BackEndApp` serves the work after :data:`SERVICE_TIME`;
* :func:`deploy_service` installs the two applications on a built farm.

All of it rides the same fabric, adapters, latency, and loss as the
protocol traffic, through the daemon's application demux — so a crashed
node, a moved adapter, or a partition degrades requests precisely as far
as the real topology (and GulfStream's view of it) degrades.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.farm.domain import DISPATCH_VLAN
from repro.gulfstream.amg import AMGView
from repro.net.addressing import IPAddress

__all__ = [
    "SERVICE_TIME",
    "BackEndApp",
    "FrontEndApp",
    "TrafficSource",
    "deploy_service",
]

#: seconds a server spends on one Work item
SERVICE_TIME = 0.005


# ----------------------------------------------------------------------
# wire messages (application layer)
# ----------------------------------------------------------------------
# Values, immutable by convention like :class:`~repro.net.packet.Frame`:
# slotted, and equal, hashed and printed over their fields.
@dataclass(slots=True, unsafe_hash=True)
class Request:
    """Dispatcher → front end."""

    req_id: int
    client: IPAddress


@dataclass(slots=True, unsafe_hash=True)
class Work:
    """Front end → back end.

    ``client`` travels with the work item so the front end can key its
    pending table by ``(client, req_id)`` — request ids are only unique
    *per dispatcher*, and two dispatchers sharing a front end may issue
    the same id concurrently.
    """

    req_id: int
    client: IPAddress
    front_end: IPAddress


@dataclass(slots=True, unsafe_hash=True)
class WorkDone:
    """Back end → front end (echoes the request's ``client`` key)."""

    req_id: int
    client: IPAddress
    worker: IPAddress


@dataclass(slots=True, unsafe_hash=True)
class Response:
    """Front end → dispatcher."""

    req_id: int
    server: IPAddress


# ----------------------------------------------------------------------
# server applications
# ----------------------------------------------------------------------
class BackEndApp:
    """Serves Work on a server's domain-internal adapter."""

    def __init__(self, host, nic) -> None:
        self.host = host
        self.nic = nic
        self.sim = host.sim
        self.served = 0
        nic.app_handler = self._on_frame

    def _on_frame(self, frame) -> None:
        msg = frame.payload
        if isinstance(msg, Work):
            self.sim.post(SERVICE_TIME, self._finish, msg)

    def _finish(self, msg: Work) -> None:
        if self.host.crashed:
            return
        self.served += 1
        self.nic.send(msg.front_end,
                      WorkDone(req_id=msg.req_id, client=msg.client, worker=self.nic.ip),
                      size=128)


class FrontEndApp:
    """Accepts Requests on the dispatcher VLAN, farms Work out on the
    domain VLAN, and answers the dispatcher.

    Worker selection uses the internal adapter's current GulfStream AMG
    view — the live membership is the service directory, which is the
    architectural point of running GulfStream underneath.

    A forwarded Work item is given up on ``work_timeout`` after dispatch.
    That costs no event: the dispatch keeps the seq its timeout event
    would have had, and every access to the pending table first drops the
    keys whose timeouts would have fired by then (docs/PROTOCOL.md §10).
    A timeout belongs to its dispatch: when a retry re-dispatches a key
    here before the first dispatch's timeout is due, that timeout leaves
    the retry's entry alone.
    """

    def __init__(self, host, dispatch_nic, internal_nic,
                 work_timeout: float, domain: str) -> None:
        self.host = host
        self.sim = host.sim
        self.dispatch_nic = dispatch_nic
        self.internal_nic = internal_nic
        self.work_timeout = work_timeout
        self.domain = domain
        self._rr = 0
        #: the AMG view the worker list was built from, and that list
        self._view: Optional[AMGView] = None
        self._worker_ips: List[IPAddress] = []
        #: (client, req_id) -> seq of the latest dispatch's timeout while the
        #: work is outstanding; the key includes the client because req ids
        #: are only per-dispatcher unique
        self._pending: Dict[Tuple[IPAddress, int], int] = {}
        #: (deadline, seq, key) per dispatch, in key order: the timeouts
        #: not applied yet
        self._expiries: deque = deque()
        self.forwarded = 0
        self.served_locally = 0
        # per-domain arrival counter: the Autoscaler's load signal
        self._m_arrivals = host.sim.metrics.counter("traffic.fe.requests", domain=domain)
        dispatch_nic.app_handler = self._on_dispatch_frame
        internal_nic.app_handler = self._on_internal_frame

    # -- worker directory --------------------------------------------------
    def _workers(self) -> List[IPAddress]:
        daemon = self.host.daemon
        # keyed by nic.index and rebuilt when the daemon restarts: resolve per call
        proto = daemon.protocols.get(self.internal_nic.index) if daemon is not None else None
        view = proto.view if proto is not None else None
        if view is not self._view:  # views are immutable: rebuilt once per view
            self._view = view
            own = self.internal_nic.ip
            self._worker_ips = [] if view is None else [m.ip for m in view.members if m.ip != own]
        return self._worker_ips

    # -- request path -------------------------------------------------------
    def _on_dispatch_frame(self, frame) -> None:
        msg = frame.payload
        if not isinstance(msg, Request):
            return
        self._m_arrivals.inc()
        workers = self._workers()
        if not workers:
            # no known peers: serve locally (a domain of one still serves)
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
        self._expire()
        self.internal_nic.send(worker, Work(req_id=msg.req_id, client=msg.client,
                                            front_end=self.internal_nic.ip), size=128)
        sim = self.sim
        seq = sim.reserve_seq()
        self._pending[key] = seq
        self._expiries.append((sim.now + self.work_timeout, seq, key))

    def _on_internal_frame(self, frame) -> None:
        msg = frame.payload
        if isinstance(msg, Work):
            # front ends are servers too: serve directly
            self.sim.post(SERVICE_TIME, self._serve_peer, msg)
            return
        if not isinstance(msg, WorkDone):
            return
        self._expire()
        if self._pending.pop((msg.client, msg.req_id), None) is None:
            return
        self.dispatch_nic.send(
            msg.client, Response(req_id=msg.req_id, server=self.dispatch_nic.ip), size=256
        )

    def _serve_peer(self, msg: Work) -> None:
        if not self.host.crashed:
            self.served_locally += 1
            self.internal_nic.send(
                msg.front_end,
                WorkDone(req_id=msg.req_id, client=msg.client, worker=self.internal_nic.ip),
                size=128,
            )

    def _expire(self) -> None:
        """Drop every Work item whose timeout event would have fired before
        the one running now: ``(deadline, seq)`` against ``(now,
        firing_seq)``, the order the engine fires events in. The
        dispatcher's own timeout handles client-side retry. A timeout whose
        key was dispatched again since leaves the later dispatch pending."""
        expiries = self._expiries
        if expiries:
            sim = self.sim
            horizon = (sim.now, sim.firing_seq)
            pending = self._pending
            while expiries and expiries[0] < horizon:  # seq is unique: key never compared
                _deadline, seq, key = expiries.popleft()
                if pending.get(key) == seq:
                    del pending[key]


# ----------------------------------------------------------------------
# the issuer
# ----------------------------------------------------------------------
class TrafficSource:
    """Issues an arrival stream as Requests on the dispatcher VLAN and
    keeps the score in the metrics registry.

    ``events`` is any iterable whose items carry ``.time`` (seconds after
    ``start_at``, non-decreasing) and ``.domain`` — a
    :class:`~repro.workload.generators.RequestStream`, a constant-rate
    generator, a list. Exactly one arrival is scheduled at a time — the
    iterator is pulled again only when its event fires — so the schedule
    never materializes in memory no matter how many requests the stream
    holds. Requests round-robin over their domain's front ends with
    retry-on-timeout failover to that domain's next front end.

    Timeouts are as lean: each send keeps the seq its timeout event would
    have had and queues ``(deadline, seq, req_id)``. The deadlines are in
    key order (one constant timeout), so only the oldest entry whose
    request is still out needs an event; a response just leaves its entry
    behind, and the head event arms the next live one when it fires
    (docs/PROTOCOL.md §10).

    Counts land in ``traffic.requests/completed/failed/retried{domain}``
    and the ``traffic.latency_s`` histogram; at any instant
    ``completed + failed + in flight == requests`` per domain.
    """

    def __init__(
        self,
        host: Any,
        front_ends: Dict[str, List[IPAddress]],
        events: Iterable[Any],
        start_at: float,
        timeout: float,
        max_retries: int = 2,
    ) -> None:
        for domain, fes in front_ends.items():
            if not fes:
                raise ValueError(f"domain {domain} has no front ends")
        self.host = host
        self.nic = next(
            n for n in host.adapters
            if n.port is not None and n.port.vlan == DISPATCH_VLAN
        )
        self.sim = host.sim
        self.front_ends = {d: list(v) for d, v in front_ends.items()}
        self.start_at = start_at
        self.timeout = timeout
        self.max_retries = max_retries
        self._it = iter(events)
        self._rr = {d: 0 for d in self.front_ends}
        # per-source ids: a module-global counter would leak state between
        # runs sharing a process (sweep workers, repeated scenarios)
        self._req_ids = itertools.count(1)
        #: req_id -> (issued_at, domain, retries_left, seq of its timeout)
        self._inflight: Dict[int, tuple] = {}
        #: (deadline, seq, req_id) per send, in key order; the head's event
        #: is filed while ``_armed``
        self._deadlines: deque = deque()
        self._armed = False
        reg = self.sim.metrics
        self._m_req = {d: reg.counter("traffic.requests", domain=d) for d in self.front_ends}
        self._m_done = {d: reg.counter("traffic.completed", domain=d) for d in self.front_ends}
        self._m_fail = {d: reg.counter("traffic.failed", domain=d) for d in self.front_ends}
        self._m_retry = {d: reg.counter("traffic.retried", domain=d) for d in self.front_ends}
        self._m_latency = reg.histogram("traffic.latency_s")
        self.nic.app_handler = self._on_frame
        self._schedule_next()

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        ev = next(self._it, None)
        if ev is None:
            return
        self.sim.schedule_at(self.start_at + ev.time, self._fire, ev.domain)

    def _fire(self, domain: str) -> None:
        self._schedule_next()
        self._m_req[domain].inc()
        if self.host.crashed:
            self._m_fail[domain].inc()
            return
        req_id = next(self._req_ids)
        self._inflight[req_id] = (self.sim.now, domain, self.max_retries, None)
        self._send(req_id, domain)

    def _send(self, req_id: int, domain: str) -> None:
        issued_at, _, retries_left, _ = self._inflight[req_id]
        fes = self.front_ends[domain]
        target = fes[self._rr[domain] % len(fes)]
        self._rr[domain] += 1
        sim = self.sim
        seq = sim.reserve_seq()
        self._inflight[req_id] = (issued_at, domain, retries_left, seq)
        self._deadlines.append((sim.now + self.timeout, seq, req_id))
        if not self._armed:  # the queue held no live entry
            self._arm()
        self.nic.send(target, Request(req_id=req_id, client=self.nic.ip), size=256)

    def _arm(self) -> None:
        """File the timeout event of the oldest send whose request is still
        out under it, at the key that send reserved; drop the entries
        before it."""
        deadlines, inflight = self._deadlines, self._inflight
        while deadlines:
            deadline, seq, req_id = deadlines[0]
            entry = inflight.get(req_id)
            if entry is not None and entry[3] == seq:
                self.sim.schedule_at(deadline, self._on_timeout, req_id, seq=seq)
                self._armed = True
                return
            deadlines.popleft()
        self._armed = False

    def _on_timeout(self, req_id: int) -> None:
        """The head entry's deadline: its request times out if still out
        under that send, then the next live entry gets the event."""
        self._armed = False
        seq = self._deadlines.popleft()[1]
        entry = self._inflight.get(req_id)
        if entry is not None and entry[3] == seq:
            del self._inflight[req_id]
            issued_at, domain, retries_left, _ = entry
            if retries_left > 0:
                self._m_retry[domain].inc()
                self._inflight[req_id] = (issued_at, domain, retries_left - 1, None)
                self._send(req_id, domain)
            else:
                self._m_fail[domain].inc()
        if not self._armed:
            self._arm()

    def _on_frame(self, frame: Any) -> None:
        msg = frame.payload
        if not isinstance(msg, Response):
            return
        entry = self._inflight.pop(msg.req_id, None)
        if entry is None:
            return  # late duplicate after the final timeout
        issued_at, domain = entry[0], entry[1]
        self._m_done[domain].inc()
        self._m_latency.observe(self.sim.now - issued_at)


# ----------------------------------------------------------------------
# deployment helper
# ----------------------------------------------------------------------
def deploy_service(farm, request_timeout: float) -> Dict[str, List[IPAddress]]:
    """Install the serving applications on every domain and spare of ``farm``.

    Nodes with a dispatcher-VLAN adapter get a :class:`FrontEndApp` (which
    gives up on a Work item after half the issuer's ``request_timeout``),
    every other domain node a :class:`BackEndApp` on its domain-internal
    adapter. Spares get the back-end application too — Océano changes a
    moved node's "personality (... operating system, applications and
    data)" before the VLAN move, so a spare arriving in a domain must
    already serve.

    Returns each domain's front-end addresses on the dispatcher VLAN.
    """
    front_ends: Dict[str, List[IPAddress]] = {}
    for domain, internal in farm.domain_vlans.items():
        front_ends[domain] = []
        for node in farm.domain_nodes[domain]:
            host = farm.hosts[node]
            nics = {nic.port.vlan: nic for nic in host.adapters}
            if DISPATCH_VLAN in nics:
                front_ends[domain].append(nics[DISPATCH_VLAN].ip)
                FrontEndApp(host, nics[DISPATCH_VLAN], nics[internal],
                            work_timeout=request_timeout / 2, domain=domain)
            else:
                BackEndApp(host, nics[internal])
    for node in farm.spare_nodes:
        host = farm.hosts[node]
        BackEndApp(host, host.adapters[1])
    return front_ends
