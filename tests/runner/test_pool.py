"""The worker pool: ParallelRunner's dispatch, ordering, fallback and
timeout.

The task callables live at module level so spawn workers can import them
by reference (``tests.runner.test_pool``). The fallback tests break the
pool on purpose — a worker that dies, a payload that does not pickle — and
each must end in bounded time with serial's rows, the warning naming a
dead worker and its exit code. A task that raises in a worker surfaces as
itself, caused by a ``WorkerError`` naming the worker. Everything crosses
the pipe as its pickle, so what a worker does to a task's arguments never
reaches the caller.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.runner import ParallelRunner, TaskTimeout, sleep_task
from repro.runner.pool import WorkerError


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


def scribble(x, box):
    """Squares after mutating its argument, which only a copy may see."""
    box["n"] = -999
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
    with pytest.raises(ValueError, match="exploded"):
        ParallelRunner(jobs=2).map(boom, TASKS)


def test_worker_exception_surfaces_as_workererror():
    with pytest.raises(ValueError) as info:
        ParallelRunner(jobs=2).map(boom, TASKS)
    # the remote traceback rides along as the cause, naming the worker
    cause = info.value.__cause__
    assert isinstance(cause, WorkerError)
    assert "in boom" in str(cause)
    assert "exploded" in str(cause)
    assert cause.worker in (0, 1)
    assert str(cause).startswith(f"worker {cause.worker} failed:")


def test_task_kwargs_mutation_in_worker_does_not_leak():
    """A worker gets a pickled copy of each task, so what the task does to
    its arguments never reaches the caller's dicts."""
    runner = ParallelRunner(jobs=2)
    tasks = [{"x": n, "box": {"n": n}} for n in range(7)]
    assert runner.map(scribble, tasks) == EXPECTED
    assert runner.last_mode == "pool"
    assert tasks == [{"x": n, "box": {"n": n}} for n in range(7)]


def test_killed_worker_finishes_in_process():
    runner = ParallelRunner(jobs=2)
    tasks = [{**task, "home": os.getpid()} for task in TASKS]
    with pytest.warns(RuntimeWarning, match="worker pool unavailable"):
        out = runner.map(square_unless_child, tasks)
    assert out == EXPECTED
    assert runner.last_mode == "pool+fallback"


def test_killed_worker_is_named_with_its_exit_code():
    """The fallback warning attributes the death: which worker, and the
    exit code ``Process.exitcode`` reports (-9: killed by SIGKILL)."""
    runner = ParallelRunner(jobs=2)
    tasks = [{**task, "home": os.getpid()} for task in TASKS]
    with pytest.warns(RuntimeWarning, match=r"worker [01] died mid-chunk \(exitcode -9\)"):
        out = runner.map(square_unless_child, tasks)
    assert out == EXPECTED


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
    # the workers, still asleep in their tasks, did not outlive the call
    assert multiprocessing.active_children() == []


def test_chunking_covers_every_index():
    for jobs, n_tasks in ((3, 11), (2, 40), (4, 3)):
        chunks = ParallelRunner(jobs=jobs)._chunks(n_tasks)
        assert [i for c in chunks for i in c] == list(range(n_tasks))
        # enough chunks to rebalance stragglers
        assert len(chunks) >= min(n_tasks, jobs * 4)


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
