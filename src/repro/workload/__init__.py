"""Seed-deterministic user-request workloads and the traffic plane.

The package the paper's motivation calls for: simulated hosted-web
traffic — Poisson arrivals, truncated-Zipf customer/user popularity,
diurnal modulation — streamed as real request frames into the farm's
dispatcher/front-end/back-end plane, with an autoscaler translating the
measured load into live GSC/SNMP domain moves.

* :mod:`repro.workload.generators` — iterator request streams (Icarus
  idiom: no in-RAM schedules).
* :mod:`repro.workload.profiles` — deterministic rate profiles (diurnal,
  flash crowds, the Océano sinusoid model).
* :mod:`repro.workload.autoscaler` — measured-load grow/shrink policy.
* :mod:`repro.workload.traffic` — the end-to-end case/campaign behind
  ``gulfstream-sim workload``.

The generator/profile core imports eagerly; the farm-facing modules
(``autoscaler``, ``traffic``) load lazily via PEP 562 so that
``repro.farm.oceano``'s compat shim can import :mod:`.profiles` without
dragging the farm/checks stack into a cycle.
"""

from typing import Any

from repro.workload.generators import (
    RequestEvent,
    RequestStream,
    TruncatedZipf,
    default_streams,
)
from repro.workload.profiles import (
    WORKLOAD_PROFILES,
    DiurnalProfile,
    DomainLoadModel,
    SpikeSchedule,
)

__all__ = [
    "WORKLOAD_PROFILES",
    "Autoscaler",
    "DiurnalProfile",
    "DomainLoadModel",
    "RequestEvent",
    "RequestStream",
    "ScalerMove",
    "SpikeSchedule",
    "TrafficSource",
    "TruncatedZipf",
    "build_traffic_farm",
    "build_traffic_report",
    "default_streams",
    "render_traffic_report",
    "run_traffic_campaign",
    "run_traffic_case",
]

_LAZY = {
    "Autoscaler": "repro.workload.autoscaler",
    "ScalerMove": "repro.workload.autoscaler",
    "TrafficSource": "repro.workload.traffic",
    "build_traffic_farm": "repro.workload.traffic",
    "build_traffic_report": "repro.workload.traffic",
    "render_traffic_report": "repro.workload.traffic",
    "run_traffic_campaign": "repro.workload.traffic",
    "run_traffic_case": "repro.workload.traffic",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
