"""Sharded Scenario plumbing: validation, dispatch, result shape, errors."""

import time

import pytest

from repro.farm.builder import build_zoned_farm
from repro.farm.scenario import Scenario
from repro.node.osmodel import OSParams
from repro.runner.pool import WorkerError
from repro.sim.engine import Simulator
from repro.sim.shard import (
    LOOKAHEAD_FLOOR,
    ShardedScenarioResult,
    run_sharded,
    validate_shards,
)

from tests.conftest import FAST

ZONED = dict(
    n_zones=2, nodes_per_zone=2, seed=11, params=FAST, os_params=OSParams.fast()
)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_shards_accepts_ints_and_auto():
    assert validate_shards(1) == 1
    assert validate_shards(8) == 8
    assert validate_shards("auto") == "auto"
    assert validate_shards(" AUTO ") == "auto"


@pytest.mark.parametrize("bad", [0, -3, True, 2.0, "four", None])
def test_validate_shards_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        validate_shards(bad)


def test_simulator_rejects_multi_shard_construction():
    """A lone Simulator cannot shard itself and takes no ``shards`` option;
    sharding is ``Scenario(shards=...)`` / ``run_sharded``."""
    with pytest.raises(TypeError, match="shards"):
        Simulator(shards=4)


def test_scenario_shards_requires_factory_not_built_farm():
    farm = build_zoned_farm(**ZONED)
    with pytest.raises(ValueError, match="farm_factory"):
        Scenario(shards=2)
    with pytest.raises(ValueError, match="not a built farm"):
        Scenario(farm=farm, shards=2, farm_factory=build_zoned_farm)
    with pytest.raises(ValueError, match="only meaningful with shards"):
        Scenario(farm=farm, farm_factory=build_zoned_farm)
    with pytest.raises(ValueError, match="needs a built farm"):
        Scenario()
    with pytest.raises(ValueError):
        Scenario(shards="some", farm_factory=build_zoned_farm)


# ----------------------------------------------------------------------
# dispatch and result shape
# ----------------------------------------------------------------------
def _fingerprint(res):
    return (
        res.stable_time,
        res.counters,
        [(r.time, r.category, r.source) for r in res.trace_records],
        res.notifications,
        res.segment_stats,
        res.events_executed,
    )


def test_scenario_dispatches_to_sharded_result_and_layouts_agree():
    results = {}
    for shards in (1, 2, "auto"):
        res = Scenario(
            shards=shards,
            farm_factory=build_zoned_farm,
            factory_kwargs=ZONED,
            duration=16.0,
        ).run()
        assert isinstance(res, ShardedScenarioResult)
        results[shards] = res

    classic, pooled, auto = results[1], results[2], results["auto"]
    # one worker is the classic run: one simulator, no cut, no channel
    assert (classic.n_islands, classic.shards, classic.cross_messages) == (1, 1, 0)
    assert classic.lookahead == 0.0 and classic.stable_time is not None
    # shards caps the worker count; islands are a topology fact
    assert pooled.n_islands == auto.n_islands == 3  # hub + 2 zones
    assert pooled.shards == 2 and auto.shards == 3
    assert pooled.lookahead == auto.lookahead == LOOKAHEAD_FLOOR
    assert pooled.stable_time is not None
    # cross-cut report traffic actually flowed
    assert pooled.cross_messages > 0
    # the acceptance bar: identical artifacts for two different layouts
    assert _fingerprint(pooled) == _fingerprint(auto)


# ----------------------------------------------------------------------
# a failing island is named, with its epoch
# ----------------------------------------------------------------------
def _explode():
    raise RuntimeError("island blew up on purpose")


def build_exploding_zoned_farm(trace=None, **kwargs):
    """``build_zoned_farm`` plus a fault in the simulator at t = 3 s, armed
    only where ``z0-n0`` lives (its island, or the whole farm)."""
    farm = build_zoned_farm(trace=trace, **kwargs)
    if "z0-n0" in farm.hosts:
        farm.sim.schedule_at(3.0, _explode)
    return farm


def test_failing_island_is_named_with_its_epoch():
    """Islands are hub 0, zone 0 = 1, zone 1 = 2; two workers own (0, 2) and
    (1,). Epochs are 1/64 s, so the barrier at t = 3 s closes epoch 191."""
    t0 = time.monotonic()
    with pytest.raises(WorkerError) as err:
        run_sharded(build_exploding_zoned_farm, ZONED, duration=16.0, shards=2)
    assert time.monotonic() - t0 < 60.0
    message = str(err.value)
    assert message.startswith("island(s) 1, epoch 191 (barrier t=3.000000s): worker 1 failed")
    assert "island blew up on purpose" in message
    assert err.value.worker == 1
