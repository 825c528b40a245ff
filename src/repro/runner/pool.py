"""The one worker process, and the pool that sweeps drive it through.

A worker is a ``spawn``ed child (no fork-inherited state, identical
behavior on every platform) that builds one state, ``init_fn(init_arg)``,
then serves ops over a duplex pipe: ``("call", method, payload)``
answers ``("ok", result)``, ``("error", traceback_text, exception)`` or,
when that reply does not pickle, ``("unpicklable", text)``; ``("stop",)``
answers with the worker's peak RSS and exits.

:class:`PersistentWorkerPool` holds N long-lived workers, each with its
own state. Everything crosses the pipe as its pickle, so a worker never
shares an object with its caller. Errors surface as :class:`WorkerError`
naming the worker (``.worker`` is its index) and carrying the remote
traceback text; the pool is torn down so no sibling is left running.

:class:`ParallelRunner` fans a list of keyword-argument dicts out to one
callable: a :class:`PersistentWorkerPool` of ``min(jobs, n_chunks)``
workers whose state is the callable, each running one contiguous chunk of
tasks per call.

* **Chunked dispatch.** Tasks are grouped into contiguous chunks so
  per-task IPC overhead amortizes over short tasks while long tasks
  still spread across workers; the next chunk goes to whichever worker
  answers first.
* **Order independence.** Results are reassembled by task index — the
  caller sees list order, never completion order.
* **Per-task timeout.** ``timeout`` is a per-task budget; a run whose
  pooled budget expires raises :class:`TaskTimeout` (a hung simulation
  would hang serially too — silently re-running it in-process would just
  hang the parent).
* **Graceful fallback.** ``jobs=1``, a single task, a callable or task
  that does not pickle, or a worker that dies mid-run all fall back to
  plain in-process execution of whatever has not completed. A task's own
  exception propagates as the object it was, exactly as it would
  serially.
"""

from __future__ import annotations

import multiprocessing
import pickle
import resource
import time
import traceback
import warnings
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ParallelRunner", "PersistentWorkerPool", "TaskTimeout", "WorkerError", "sleep_task"]

#: start method of every worker process
START_METHOD = "spawn"

#: parent-side guard (seconds) against a wedged pool worker, read at call
#: time; generous because one call is normally a chunk of sweep tasks
CALL_TIMEOUT = 600.0

#: marks a slot whose task has not produced a result yet
_PENDING = object()

#: pickling a closure/lambda fails with one of these, depending on path
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError, ValueError)


class TaskTimeout(RuntimeError):
    """A sweep's pooled per-task time budget expired."""


class WorkerError(RuntimeError):
    """A worker failed or could not be reached; the message says which,
    and ``worker`` is its index (``None`` when no one worker is at fault)."""

    def __init__(self, message: str, worker: Optional[int] = None) -> None:
        super().__init__(message)
        self.worker = worker


class _Unpicklable(WorkerError):
    """An init argument, a payload or a reply does not pickle."""


def _worker_main(conn: Any, init_fn: Callable[[Any], Any], init_arg: Any) -> None:
    """Child entry point: build the state, then serve ops until stopped."""
    with conn:
        try:
            state = init_fn(init_arg)
        except BaseException:
            conn.send(("error", traceback.format_exc(), None))
            return
        conn.send(("ok", None))
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            if msg[0] == "stop":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                conn.send(("ok", {"peak_rss_kb": int(peak_kb)}))
                return
            _op, method, payload = msg
            try:
                reply = ("ok", getattr(state, method)(payload))
            except BaseException as exc:
                reply = ("error", traceback.format_exc(), exc)
            try:
                conn.send(reply)
            except Exception:  # the result, or the exception, does not pickle
                text = reply[1] if reply[0] == "error" else traceback.format_exc()
                conn.send(("unpicklable", text))


class PersistentWorkerPool:
    """N long-lived workers, each holding one ``init_fn(arg)`` state.

    Parameters
    ----------
    init_fn:
        Module-level callable building one worker's state; must be
        importable from a spawned child.
    init_args:
        One init argument per worker; the pool size is ``len(init_args)``.

    Any single reply is awaited at most :data:`CALL_TIMEOUT` seconds.
    """

    def __init__(self, init_fn: Callable[[Any], Any], init_args: Sequence[Any]) -> None:
        self.n_workers = len(init_args)
        self._closed = False
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        if self.n_workers == 0:
            raise ValueError("PersistentWorkerPool needs at least one worker")
        ctx = multiprocessing.get_context(START_METHOD)
        try:
            for i, arg in enumerate(init_args):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self._conns.append(parent_conn)
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, init_fn, arg), daemon=True
                )
                try:
                    proc.start()  # pickles init_fn and arg, here, synchronously
                except _PICKLE_ERRORS as exc:
                    raise self._broken(i, exc) from exc
                finally:
                    child_conn.close()
                self._procs.append(proc)
            for i in range(self.n_workers):
                self._recv(i)
        except BaseException:
            self.terminate()
            raise

    # ------------------------------------------------------------------
    def _broken(self, i: int, why: Any) -> WorkerError:
        """Tear the pool down and return worker ``i``'s error: ``why`` says
        what went wrong, or is the exception that stopped a pickle."""
        self.terminate()
        if isinstance(why, BaseException):
            return _Unpicklable(f"worker {i}: {type(why).__name__}: {why}", i)
        return WorkerError(f"worker {i} {why}", i)

    def _send(self, i: int, method: str, payload: Any) -> None:
        try:
            self._conns[i].send(("call", method, payload))
        except _PICKLE_ERRORS as exc:
            raise self._broken(i, exc) from exc
        except OSError:
            raise self._broken(i, "died before a call")

    def _reply(self, i: int) -> Tuple[Any, ...]:
        """Worker ``i``'s next ``("ok", result)`` or ``("error", text, exc)``."""
        conn = self._conns[i]
        try:
            if not conn.poll(CALL_TIMEOUT):
                raise self._broken(i, f"gave no reply within {CALL_TIMEOUT}s")
            reply = conn.recv()
        except (EOFError, OSError):
            raise self._broken(i, "died without a reply")
        except _PICKLE_ERRORS as exc:
            raise self._broken(i, exc) from exc
        if reply[0] == "unpicklable":
            self.terminate()
            raise _Unpicklable(f"worker {i}: {reply[1].strip().splitlines()[-1]}", i)
        return reply

    def _recv(self, i: int) -> Any:
        reply = self._reply(i)
        if reply[0] == "error":
            raise self._broken(i, f"failed:\n{reply[1]}")
        return reply[1]

    # ------------------------------------------------------------------
    def call(self, i: int, method: str, payload: Any = None) -> Any:
        """Invoke ``state.method(payload)`` on worker ``i``; return its result."""
        if self._closed:
            raise WorkerError("pool is closed")
        self._send(i, method, payload)
        return self._recv(i)

    # ------------------------------------------------------------------
    def stop(self) -> List[Optional[dict]]:
        """Graceful shutdown. Returns per-worker stats (``peak_rss_kb``),
        aligned with worker index."""
        stats: List[Optional[dict]] = []
        if not self._closed:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except OSError:
                    pass
            for conn in self._conns:
                try:
                    stats.append(conn.recv()[1] if conn.poll(CALL_TIMEOUT) else None)
                except (EOFError, OSError):
                    stats.append(None)
            for proc in self._procs:
                proc.join(timeout=30)
        self.terminate()
        return stats

    def terminate(self) -> None:
        """Hard teardown (error paths); safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10)
        for conn in self._conns:
            conn.close()


class _ChunkRunner:
    """A sweep worker's state: the task callable, run over one chunk per call."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def run(self, kwargs_list: List[Dict[str, Any]]) -> List[Any]:
        return [self.fn(**kwargs) for kwargs in kwargs_list]


def sleep_task(seconds: float) -> Dict[str, float]:
    """Sleep-only task for measuring pool *overlap*.

    Sleeps overlap perfectly across workers while CPU-bound work cannot
    exceed the core count, so tests and benches use this to verify the
    dispatch fabric actually runs tasks concurrently — independent of how
    many cores the host happens to have.
    """
    time.sleep(seconds)
    return {"slept": seconds}


class ParallelRunner:
    """Dispatch independent tasks over spawned workers.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (the default) runs everything in-process
        with zero pool machinery; ``0``/negative means one per CPU.
    timeout:
        Per-task wall-clock budget in seconds, enforced while the pool
        drains (pooled across outstanding tasks). ``None`` disables it.
        The in-process path cannot preempt a task, so there it is not
        enforced.
    chunk_size:
        Tasks per dispatched chunk. Default: enough chunks for ~4 rounds
        per worker, so stragglers rebalance.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if jobs <= 0:
            jobs = multiprocessing.cpu_count()
        self.jobs = jobs
        self.timeout = timeout
        self.chunk_size = chunk_size
        #: how the last ``map`` actually executed: "serial", "pool", or
        #: "pool+fallback" (the pool could not finish; the remainder ran
        #: in-process)
        self.last_mode: str = "serial"

    # ------------------------------------------------------------------
    def map(self, fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]]) -> List[Any]:
        """``[fn(**kw) for kw in kwargs_list]``, possibly in parallel."""
        tasks = list(kwargs_list)
        if self.jobs <= 1 or len(tasks) <= 1:
            self.last_mode = "serial"
            return [fn(**kwargs) for kwargs in tasks]

        results: List[Any] = [_PENDING] * len(tasks)
        fallback = self._pool_map(fn, tasks, results)
        if fallback is None:
            self.last_mode = "pool"
        else:
            warnings.warn(fallback, RuntimeWarning, stacklevel=2)
            self.last_mode = "pool+fallback"
        for i, kwargs in enumerate(tasks):
            if results[i] is _PENDING:
                results[i] = fn(**kwargs)
        return results

    # ------------------------------------------------------------------
    def _chunks(self, n_tasks: int) -> List[range]:
        size = self.chunk_size
        if size is None or size <= 0:
            size = max(1, -(-n_tasks // (self.jobs * 4)))
        return [range(lo, min(lo + size, n_tasks)) for lo in range(0, n_tasks, size)]

    def _pool_map(
        self,
        fn: Callable[..., Any],
        tasks: List[Dict[str, Any]],
        results: List[Any],
    ) -> Optional[str]:
        """Fill ``results`` in place through spawned workers.

        Returns ``None`` once every chunk came back, else why the rest
        must run in-process. Re-raises a task's exception and raises
        :class:`TaskTimeout` directly.
        """
        chunks = self._chunks(len(tasks))
        deadline = (
            time.monotonic() + self.timeout * len(tasks)
            if self.timeout is not None
            else None
        )
        queue = deque(chunks)
        busy: Dict[Any, Tuple[int, range]] = {}
        failed: Optional[Tuple[int, str, BaseException]] = None
        pool: Optional[PersistentWorkerPool] = None
        try:
            pool = PersistentWorkerPool(_ChunkRunner, [fn] * min(self.jobs, len(chunks)))
            idle = list(range(pool.n_workers))
            while failed is None and (queue or busy):
                while idle and queue:
                    i, chunk = idle.pop(), queue.popleft()
                    pool._send(i, "run", [tasks[j] for j in chunk])
                    busy[pool._conns[i]] = (i, chunk)
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                ready = wait(list(busy), remaining)
                if not ready:
                    raise TaskTimeout(
                        f"{sum(r is _PENDING for r in results)} task(s) still "
                        f"running after the pooled budget "
                        f"({self.timeout}s/task x {len(tasks)} tasks)"
                    )
                for conn in ready:
                    i, chunk = busy.pop(conn)
                    reply = pool._reply(i)
                    if reply[0] == "error":
                        failed = (i, reply[1], reply[2])
                        break
                    for index, value in zip(chunk, reply[1]):
                        results[index] = value
                    idle.append(i)
            if failed is None:
                pool.stop()
        except _Unpicklable as exc:
            return f"sweep tasks are not picklable ({exc}); running in-process"
        except WorkerError as exc:
            return (
                f"worker pool unavailable ({type(exc).__name__}: {exc}); "
                "finishing sweep in-process"
            )
        finally:
            if pool is not None:
                pool.terminate()
        if failed is not None:
            i, text, exc = failed
            raise exc from WorkerError(f"worker {i} failed:\n{text}")
        return None
