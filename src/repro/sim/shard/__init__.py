"""Sharded parallel simulation (PDES) across VLAN islands.

One farm run partitions into per-island sub-simulations executed in
parallel worker processes, synchronized at conservative-lookahead
barriers, with byte-identical traces at any worker count. See
docs/PROTOCOL.md §9 for the partition rule, the lookahead bound, and
the determinism argument.

* :mod:`~repro.sim.shard.partition` — island decomposition + lookahead;
* :mod:`~repro.sim.shard.channel` — the timestamped cross-cut message
  channel with deterministic merge order;
* :mod:`~repro.sim.shard.context` — build-time ownership context the
  :class:`~repro.farm.builder.FarmBuilder` consults;
* :mod:`~repro.sim.shard.runner` — :func:`run_sharded`, the epoch-loop
  coordinator (imported lazily: it depends on the farm layer, which in
  turn imports this package's context module at build time).
"""

from repro.sim.shard.channel import CutMessage, ShardGateway, merge_inbox
from repro.sim.shard.context import NodeRecord, ShardBuildContext
from repro.sim.shard.partition import (
    IslandPartition,
    LOOKAHEAD_FLOOR,
    derive_lookahead,
    split_fault_actions,
)

__all__ = [
    "CutMessage",
    "IslandPartition",
    "LOOKAHEAD_FLOOR",
    "NodeRecord",
    "ShardBuildContext",
    "ShardGateway",
    "ShardPlan",
    "ShardedScenarioResult",
    "derive_lookahead",
    "merge_inbox",
    "run_sharded",
    "split_fault_actions",
    "validate_shards",
]

_LAZY = {"run_sharded", "ShardPlan", "ShardedScenarioResult", "IslandHost", "validate_shards"}


def __getattr__(name: str):
    # runner pulls in the farm layer; resolving it lazily keeps
    # `repro.farm.builder -> repro.sim.shard.context` cycle-free
    if name in _LAZY:
        from repro.sim.shard import runner as _runner

        return getattr(_runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
