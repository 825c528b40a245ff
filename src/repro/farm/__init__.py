"""Multi-domain server-farm modelling — the Océano layer.

Reproduces the topologies of the paper's Figures 1 and 2:

* :func:`~repro.farm.builder.build_testbed` — the 55-node evaluation
  testbed: N nodes, three adapters each, three farm-wide VLANs (one of them
  administrative), which yields exactly the "three groups" of Figure 5.
* :class:`~repro.farm.builder.FarmBuilder` /
  :func:`~repro.farm.builder.build_farm` — a full Océano-style farm:
  network-isolated customer domains (each with front-end and back-end
  layers), request dispatchers, and an administrative domain hosting
  GulfStream Central.
* :mod:`repro.farm.requests` — the application layer riding the farm: the
  request issuer on a dispatcher node and the front-end / back-end server
  applications (what reallocates servers under that traffic lives in
  :mod:`repro.workload.autoscaler`).
"""

from repro.farm.domain import DomainSpec, FarmSpec
from repro.farm.builder import Farm, FarmBuilder, build_farm, build_testbed, build_zoned_farm
from repro.farm.requests import BackEndApp, FrontEndApp, TrafficSource, deploy_service

__all__ = [
    "BackEndApp",
    "DomainSpec",
    "Farm",
    "FarmBuilder",
    "FarmSpec",
    "FrontEndApp",
    "TrafficSource",
    "build_farm",
    "build_testbed",
    "build_zoned_farm",
    "deploy_service",
]
