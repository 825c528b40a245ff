"""PersistentWorkerPool: state, ordering and failure propagation.

``repro.runner.pool`` has one worker process; shard islands drive it
through this pool and sweeps through ``ParallelRunner``
(``tests/runner/test_pool.py``). A worker that raises, dies between two
steps or never answers must surface as a ``WorkerError`` naming it, in
bounded time. Everything crosses the pipe as its pickle, so what a worker
does to a payload never reaches the caller.
"""

import time

import pytest

from repro.runner import pool as pool_module
from repro.runner.pool import PersistentWorkerPool, WorkerError


class Tally:
    """Tiny stateful worker: accumulates, echoes, or raises on demand."""

    def __init__(self, init):
        self.init = init
        self.total = init["start"]
        self.kept = None

    def add(self, payload):
        self.total += payload["n"]
        # across a pipe, mutating the payload must never leak back to the caller
        payload["n"] = -999
        return {"total": self.total}

    def keep(self, payload):
        self.kept = [self.init, payload]
        return self.kept

    def last_kept(self, _payload):
        return self.kept

    def boom(self, payload):
        raise RuntimeError(f"worker exploded on {payload!r}")


def _make(init):
    return Tally(init)


INIT_ARGS = ({"start": 10}, {"start": 20})  # never mutated


# the start method every pool worker is created with, named in each test id
@pytest.fixture(params=[pool_module.START_METHOD])
def pool(request):
    p = PersistentWorkerPool(_make, INIT_ARGS)
    yield p
    p.terminate()


def test_state_persists_across_calls_and_workers_are_independent(pool):
    assert pool.call(0, "add", {"n": 1}) == {"total": 11}
    assert pool.call(0, "add", {"n": 1}) == {"total": 12}
    assert pool.call(1, "add", {"n": 5}) == {"total": 25}


def test_call_all_fans_out_in_worker_order(pool):
    replies = pool.call_all("add", [{"n": 2}, {"n": 3}])
    assert replies == [{"total": 12}, {"total": 23}]


def test_payload_mutation_in_worker_does_not_leak(pool):
    """A worker gets a pickled copy, so the pipe isolates the caller from
    anything the worker does to it (``Tally.add`` mutates its payload), and
    what it keeps or returns is a copy too."""
    payload = {"n": 7}
    pool.call(0, "add", payload)
    assert payload == {"n": 7}
    kept = pool.call(0, "keep", payload)
    assert kept == [INIT_ARGS[0], payload] and kept[1] is not payload
    assert pool.call(0, "last_kept") == kept


def test_worker_exception_surfaces_as_workererror(pool):
    with pytest.raises(WorkerError, match="exploded"):
        pool.call(0, "boom", {"why": "test"})


def test_stop_reports_each_workers_peak_rss():
    spawned = PersistentWorkerPool(_make, [{"start": 0}, {"start": 1}])
    stats = spawned.stop()
    assert len(stats) == 2
    assert all(s is not None and s["peak_rss_kb"] > 0 for s in stats)


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        PersistentWorkerPool(_make, [])


class Stuck:
    """A worker whose one method never returns."""

    def __init__(self, _init):
        pass

    def hang(self, _payload):
        while True:
            time.sleep(60)


def test_worker_killed_between_steps_is_named():
    pool = PersistentWorkerPool(_make, INIT_ARGS)
    try:
        assert pool.call_all("add", [{"n": 1}, {"n": 1}]) == [{"total": 11}, {"total": 21}]
        pool._procs[1].kill()
        pool._procs[1].join(timeout=10)
        assert not pool._procs[1].is_alive()
        with pytest.raises(WorkerError, match="worker 1 died") as err:
            pool.call_all("add", [{"n": 1}, {"n": 1}])
        assert err.value.worker == 1
    finally:
        pool.terminate()


def test_hung_worker_times_out(monkeypatch):
    pool = PersistentWorkerPool(Stuck, [None])
    monkeypatch.setattr(pool_module, "CALL_TIMEOUT", 0.5)
    t0 = time.monotonic()
    try:
        with pytest.raises(WorkerError, match="worker 0 gave no reply within 0.5s"):
            pool.call(0, "hang")
    finally:
        pool.terminate()
    assert time.monotonic() - t0 < 15.0
