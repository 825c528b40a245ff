"""Inline hand-over by reference ≡ inline hand-over by pickle (PROTOCOL §9).

At ``shards=1`` the coordinator and its islands exchange the build plan,
every epoch's inbox and outbox, and the final accounting as the objects
they are. Until that was so, the inline pool pickle-round-tripped each of
them — what a pipe does. That path survives only here, as the oracle:
``PicklingPool`` is the old inline pool, and a run through it must be
indistinguishable from the by-reference run. It is the in-process half of
the argument ``tests/integration/test_shard_equivalence.py`` closes with
real pipes, and needs no child process, so it runs in the fast loop.
"""

import copy
import pickle

import pytest

from repro.node.faults import FaultPlan
from repro.runner.pool import PersistentWorkerPool
from repro.sim.shard import runner
from repro.workload.traffic import run_traffic_case

from tests.integration.test_shard_equivalence import _fingerprint, _run
from tests.workload.test_traffic import QUICK


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class PicklingPool(PersistentWorkerPool):
    """The inline pool as it was: every init arg, payload and result takes
    the pickle round trip a pipe transfer would give it."""

    def __init__(self, init_fn, init_args, *, inline):
        assert inline, "the oracle replaces the inline layout only"
        super().__init__(init_fn, [_roundtrip(arg) for arg in init_args], inline=True)

    def call(self, i, method, payload=None):
        return _roundtrip(super().call(i, method, _roundtrip(payload)))


def _crash_storm():
    return (
        FaultPlan()
        .crash_node(13.0, "z0-n1")
        .crash_node(13.0, "z1-n2")
        .crash_node(13.5, "z0-n2")
        .restart_node(15.0, "z0-n1")
        .restart_node(15.5, "z1-n2")
    )


@pytest.fixture(scope="module")
def by_reference():
    """The ZONED crash storm at ``shards=1``, as shipped: its fingerprint, the
    ``ShardPlan`` the pool was handed, and a deep copy of that plan taken
    before any island was built."""
    seen = []

    class RecordingPool(PersistentWorkerPool):
        def __init__(self, init_fn, init_args, *, inline):
            seen.append((init_args[0].plan, copy.deepcopy(init_args[0].plan)))
            super().__init__(init_fn, init_args, inline=inline)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "PersistentWorkerPool", RecordingPool)
        fingerprint = _fingerprint(_run(1, _crash_storm(), duration=22.0))
    ((plan, before),) = seen
    return fingerprint, plan, before


def test_crash_storm_fingerprint_is_the_pickled_one(by_reference, monkeypatch):
    monkeypatch.setattr(runner, "PersistentWorkerPool", PicklingPool)
    pickled = _fingerprint(_run(1, _crash_storm(), duration=22.0))
    fingerprint = by_reference[0]
    assert fingerprint["cross"] > 0  # three islands did talk across the cut
    for key in pickled:
        assert fingerprint[key] == pickled[key], f"{key} differs once hand-over is by reference"


def test_shared_plan_is_read_only(by_reference):
    """Inline, the coordinator and all three islands hold one ``ShardPlan``;
    building and running them leaves it as it was handed over."""
    _, plan, before = by_reference
    assert plan is not before and plan == before
    assert plan.fault_actions and plan.partition.n_islands == 3


def test_mixed_traffic_row_is_the_pickled_one(monkeypatch):
    """Requests, responses and retries crossing the dispatcher cut while
    crashes, flaps and partitions play out on the data island."""
    kw = dict(case=0, seed=3, mix="mixed", **QUICK)
    row = run_traffic_case(shards=1, **kw)
    monkeypatch.setattr(runner, "PersistentWorkerPool", PicklingPool)
    assert run_traffic_case(shards=1, **kw) == row
    assert row["requests"]["retried"] > 0 and sum(row["faults"].values()) > 0
