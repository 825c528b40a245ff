"""Classic single-simulator run vs the shard runner.

``shards=1`` *is* the classic run: one worker means one simulator, so
``run_sharded`` runs the farm it built through the same body as
``Scenario(farm).run()`` and the two must agree exactly.

From two workers up, every frame that crosses the cut at ``t`` is
delivered at ``t + L`` (PROTOCOL §9, "Lookahead and the epoch barrier"),
on top of the link's own transit, so those runs still differ from the
classic path. The ``shards=2`` differentials pin that difference as
strict xfails: the change that makes a crossing cost only its link (and
the two paths agree) has to retire them.
"""

import pytest

from repro.farm.builder import build_zoned_farm
from repro.farm.scenario import Scenario
from repro.sim.shard import run_sharded
from repro.workload.traffic import (
    TRAFFIC_START,
    build_traffic_farm,
    run_traffic_case,
    traffic_horizon,
)

from tests.integration.test_shard_equivalence import ZONED
from tests.workload.test_traffic import QUICK

LOOKAHEAD = (
    "PROTOCOL §9 lookahead: a cut crossing is delivered at t + L on top of "
    "the link, which the classic path never adds"
)


def _assert_zoned_classic_equals(shards):
    classic = Scenario(build_zoned_farm(**ZONED), duration=18.0).run()
    sharded = run_sharded(build_zoned_farm, ZONED, duration=18.0, shards=shards)
    assert sharded.stable_time == classic.stable_time
    assert sharded.counters == classic.counters


def _assert_traffic_classic_equals(shards):
    kw = dict(seed=1, **QUICK)
    row = run_traffic_case(shards=shards, **kw)
    farm = build_traffic_farm(**kw)
    Scenario(
        farm,
        duration=traffic_horizon(QUICK["duration"], None),
        stability_timeout=TRAFFIC_START,
    ).run()
    hist = farm.sim.metrics.histogram("traffic.latency_s")
    assert hist.count == row["requests"]["completed"]
    assert round(hist.percentile(50), 6) == row["latency"]["p50"]
    assert round(hist.percentile(99), 6) == row["latency"]["p99"]


def test_zoned_farm_classic_equals_one_shard():
    _assert_zoned_classic_equals(1)


def test_traffic_case_classic_equals_one_shard():
    _assert_traffic_classic_equals(1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=LOOKAHEAD)
def test_zoned_farm_classic_equals_two_shards():
    _assert_zoned_classic_equals(2)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=LOOKAHEAD)
def test_traffic_case_classic_equals_two_shards():
    _assert_traffic_classic_equals(2)
