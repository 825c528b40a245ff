"""The worker pool: ParallelRunner's dispatch, ordering, fallback and
timeout, and the PersistentWorkerPool underneath it.

The task callables live at module level so spawn workers can import them
by reference (``tests.runner.test_pool``). The fallback tests break the
pool on purpose — a worker that dies, a payload that does not pickle — and
each must end in bounded time with serial's rows. A worker that raises,
dies between two calls or never answers must surface as a ``WorkerError``
naming it, in bounded time. Everything crosses the pipe as its pickle, so
what a worker does to a payload never reaches the caller.
"""

import os
import signal
import time

import pytest

from repro.runner import ParallelRunner, TaskTimeout, sleep_task
from repro.runner import pool as pool_module
from repro.runner.pool import PersistentWorkerPool, WorkerError


def square(x):
    return {"sq": x * x}


def boom(x):
    raise ValueError(f"task {x} exploded")


def square_unless_child(x, home):
    """Squares, except in a spawned worker (any process but ``home``),
    which it SIGKILLs — so only the in-process fallback can answer."""
    if os.getpid() != home:
        os.kill(os.getpid(), signal.SIGKILL)
    return square(x)


def square_with_hook(x, hook):
    return square(x)


def napper(x):
    time.sleep(10.0)
    return {"x": x}


TASKS = [{"x": n} for n in range(7)]
EXPECTED = [{"sq": n * n} for n in range(7)]


def test_serial_path_no_pool():
    runner = ParallelRunner(jobs=1)
    assert runner.map(square, TASKS) == EXPECTED
    assert runner.last_mode == "serial"


def test_single_task_skips_pool_even_with_jobs():
    runner = ParallelRunner(jobs=4)
    assert runner.map(square, [{"x": 3}]) == [{"sq": 9}]
    assert runner.last_mode == "serial"


def test_pool_results_match_serial_in_order():
    runner = ParallelRunner(jobs=2)
    assert runner.map(square, TASKS) == EXPECTED
    assert runner.last_mode == "pool"


def test_unpicklable_fn_falls_back_in_process():
    runner = ParallelRunner(jobs=2)
    with pytest.warns(RuntimeWarning, match="not picklable"):
        out = runner.map(lambda x: {"sq": x * x}, TASKS)
    assert out == EXPECTED
    assert runner.last_mode == "pool+fallback"


def test_task_exception_propagates_serial():
    with pytest.raises(ValueError, match="exploded"):
        ParallelRunner(jobs=1).map(boom, TASKS)


def test_task_exception_propagates_from_pool():
    with pytest.raises(ValueError, match="exploded") as info:
        ParallelRunner(jobs=2).map(boom, TASKS)
    # the remote traceback rides along as the cause
    assert isinstance(info.value.__cause__, WorkerError)
    assert "in boom" in str(info.value.__cause__)


def test_killed_worker_finishes_in_process():
    runner = ParallelRunner(jobs=2)
    tasks = [{**task, "home": os.getpid()} for task in TASKS]
    with pytest.warns(RuntimeWarning, match="worker pool unavailable"):
        out = runner.map(square_unless_child, tasks)
    assert out == EXPECTED
    assert runner.last_mode == "pool+fallback"


def test_unpicklable_payload_falls_back_in_process():
    runner = ParallelRunner(jobs=2)
    tasks = [{**task, "hook": lambda: None} for task in TASKS]
    with pytest.warns(RuntimeWarning, match="not picklable"):
        out = runner.map(square_with_hook, tasks)
    assert out == EXPECTED
    assert runner.last_mode == "pool+fallback"


def test_per_task_timeout_raises():
    runner = ParallelRunner(jobs=2, timeout=0.2)
    with pytest.raises(TaskTimeout):
        runner.map(napper, [{"x": 1}, {"x": 2}])


def test_chunking_covers_every_index():
    runner = ParallelRunner(jobs=3, chunk_size=4)
    chunks = runner._chunks(11)
    flat = [i for c in chunks for i in c]
    assert flat == list(range(11))
    assert all(len(c) <= 4 for c in chunks)
    # default sizing: enough chunks to rebalance stragglers
    auto = ParallelRunner(jobs=2)._chunks(40)
    assert len(auto) >= 8
    assert [i for c in auto for i in c] == list(range(40))


def test_jobs_zero_means_cpu_count():
    assert ParallelRunner(jobs=0).jobs >= 1


@pytest.mark.slow
def test_sleep_task_overlaps():
    # sleeps overlap even on a 1-core host: 4 x 0.75s must beat the 3.0s
    # serial floor by a clear margin despite worker spawn cost
    t0 = time.perf_counter()
    out = ParallelRunner(jobs=4).map(sleep_task, [{"seconds": 0.75}] * 4)
    elapsed = time.perf_counter() - t0
    assert out == [{"slept": 0.75}] * 4
    assert elapsed < 2.6, elapsed


# ----------------------------------------------------------------------
# PersistentWorkerPool: state, isolation and failure propagation
# ----------------------------------------------------------------------
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


@pytest.fixture
def pool():
    p = PersistentWorkerPool(_make, INIT_ARGS)
    yield p
    p.terminate()


def test_state_persists_across_calls_and_workers_are_independent(pool):
    assert pool.call(0, "add", {"n": 1}) == {"total": 11}
    assert pool.call(0, "add", {"n": 1}) == {"total": 12}
    assert pool.call(1, "add", {"n": 5}) == {"total": 25}


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


def test_worker_killed_between_calls_is_named():
    pool = PersistentWorkerPool(_make, INIT_ARGS)
    try:
        assert [pool.call(i, "add", {"n": 1}) for i in (0, 1)] == [{"total": 11}, {"total": 21}]
        pool._procs[1].kill()
        pool._procs[1].join(timeout=10)
        assert not pool._procs[1].is_alive()
        with pytest.raises(WorkerError, match="worker 1 died") as err:
            pool.call(1, "add", {"n": 1})
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
