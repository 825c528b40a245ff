"""Seed-deterministic user-request workloads and the traffic plane.

The package the paper's motivation calls for: simulated hosted-web
traffic — Poisson arrivals, truncated-Zipf customer-domain popularity,
diurnal modulation — streamed as real request frames into the farm's
dispatcher/front-end/back-end plane (:mod:`repro.farm.requests`), with an
autoscaler translating the measured load into live GSC/SNMP domain moves.

* :mod:`repro.workload.generators` — iterator request streams of
  ``(time, domain)`` arrivals (Icarus idiom: no in-RAM schedules).
* :mod:`repro.workload.profiles` — deterministic rate profiles (diurnal,
  flash crowds, the Océano sinusoid model).
* :mod:`repro.workload.autoscaler` — the grow/shrink controller (measured
  load by default, any ``load(domain, now)`` signal on request).
* :mod:`repro.workload.traffic` — the end-to-end case/campaign behind
  ``gulfstream-sim workload``.
"""

from repro.workload.autoscaler import Autoscaler, ScalerMove
from repro.workload.generators import (
    RequestStream,
    TruncatedZipf,
    constant_rate,
    default_streams,
)
from repro.workload.profiles import (
    WORKLOAD_PROFILES,
    DiurnalProfile,
    DomainLoadModel,
    SpikeSchedule,
)
from repro.workload.traffic import (
    build_traffic_farm,
    build_traffic_report,
    render_traffic_report,
    run_traffic_campaign,
    run_traffic_case,
)

__all__ = [
    "WORKLOAD_PROFILES",
    "Autoscaler",
    "DiurnalProfile",
    "DomainLoadModel",
    "RequestStream",
    "ScalerMove",
    "SpikeSchedule",
    "TruncatedZipf",
    "build_traffic_farm",
    "build_traffic_report",
    "constant_rate",
    "default_streams",
    "render_traffic_report",
    "run_traffic_campaign",
    "run_traffic_case",
]
