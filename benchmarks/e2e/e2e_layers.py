"""Layers of the full stack, and the bucketing of a cProfile run into them.

A layer is one module (or one package) of ``src/repro``; the table below is
the whole mapping. Every source file must match exactly one entry — the
smoke test walks ``src/repro`` and fails on a file that matches none, so a
new module cannot silently be billed to ``host.other``.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: time outside ``src/repro``: builtins, numpy, pickle, the standard library
HOST_LAYER = "host.other"
#: modules of ``src/repro`` that none of the four workloads keeps busy
REST_LAYER = "repro.other"

#: layer -> dotted module prefixes (relative to ``repro``; a package's
#: ``__init__.py`` is spelled out so that ``sim`` cannot swallow ``sim.engine``)
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim.engine",),
    "sim.process": ("sim.process",),
    "sim.trace": ("sim.trace",),
    "sim.shard": ("sim.shard",),
    "net.segment": ("net.segment",),
    "net.nic": ("net.nic",),
    "net.addressing": ("net.addressing",),
    "net.packet": ("net.packet",),
    "net.loss": ("net.loss",),
    "node.osmodel": ("node.osmodel",),
    "gulfstream.adapter_proto": ("gulfstream.adapter_proto",),
    "gulfstream.amg": ("gulfstream.amg",),
    "gulfstream.heartbeat": ("gulfstream.heartbeat",),
    "gulfstream.two_phase": ("gulfstream.two_phase",),
    "gulfstream.daemon": ("gulfstream.daemon",),
    "gulfstream.central": ("gulfstream.central",),
    "gulfstream.correlation": ("gulfstream.correlation",),
    "checks.invariants": ("checks.invariants",),
    "metrics.core": ("metrics.core",),
    "farm.requests": ("farm.requests",),
    "workload.generators": ("workload.generators",),
    "workload.traffic": ("workload.traffic",),
    "workload.autoscaler": ("workload.autoscaler",),
    REST_LAYER: (
        "__init__",
        "cli",
        "analysis",
        "detectors",
        "runner",
        "checks.__init__",
        "checks.campaign",
        "farm.__init__",
        "farm.builder",
        "farm.domain",
        "farm.oceano",
        "farm.scenario",
        "gulfstream.__init__",
        "gulfstream.configdb",
        "gulfstream.hierarchy",
        "gulfstream.messages",
        "gulfstream.notify",
        "gulfstream.params",
        "gulfstream.reconfig",
        "gulfstream.subgroups",
        "metrics.__init__",
        "metrics.export",
        "metrics.sampling",
        "net.__init__",
        "net.fabric",
        "net.router",
        "net.snmp",
        "net.switch",
        "node.__init__",
        "node.faults",
        "node.host",
        "sim.__init__",
        "sim.rng",
        "workload.__init__",
        "workload.profiles",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES) + (HOST_LAYER,)


def layers_matching(module: str) -> List[str]:
    """Every layer whose table claims the dotted ``module`` name."""
    return [
        layer
        for layer, prefixes in LAYER_MODULES.items()
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    ]


def module_of(filename: str) -> Optional[str]:
    """Dotted module name of a file under ``src/repro``, else ``None``."""
    try:
        rel = Path(filename).resolve().relative_to(SRC_ROOT)
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def layer_of(filename: str) -> str:
    """The layer a profiled function's file is billed to."""
    module = module_of(filename)
    if module is None:
        return HOST_LAYER
    matches = layers_matching(module)
    return matches[0] if matches else REST_LAYER


def bucket_profile(stats: pstats.Stats) -> Dict[str, object]:
    """Fold a profile into per-layer self time and calls, plus the
    layer→layer caller edges (calls and cumulative seconds) that say what
    caused each layer's time."""
    cache: Dict[str, str] = {}

    def cached_layer(filename: str) -> str:
        layer = cache.get(filename)
        if layer is None:
            layer = cache[filename] = layer_of(filename)
        return layer

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: Dict[Tuple[str, str], List[float]] = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        layer = cached_layer(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        for (caller_file, _cl, _cn), (edge_calls, _ecc, _ett, edge_cum) in callers.items():
            caller = cached_layer(caller_file)
            if caller != layer:
                edge = edges.setdefault((caller, layer), [0, 0.0])
                edge[0] += edge_calls
                edge[1] += edge_cum
    return {
        "self_s": self_s,
        "calls": calls,
        "edges": [
            {"caller": a, "callee": b, "calls": int(n), "cum_s": cum}
            for (a, b), (n, cum) in sorted(edges.items(), key=lambda kv: -kv[1][1])
        ],
    }
