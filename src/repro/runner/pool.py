"""The sweep's worker processes: :class:`ParallelRunner`.

:class:`ParallelRunner` fans a list of keyword-argument dicts out to one
callable. With ``jobs > 1`` and more than one task it starts
``min(jobs, n_chunks)`` workers, each a ``spawn``ed child (no
fork-inherited state, identical behavior on every platform) given the
callable as its ``Process`` argument. A worker answers each chunk it is
sent — a list of kwargs dicts — on a duplex pipe with ``("ok", results)``,
``("error", traceback_text, exception)`` or, when that reply does not
pickle, ``("unpicklable", text)``, and exits when the pipe closes.
Everything crosses the pipe as its pickle, so a worker never shares an
object with its caller.

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
* **Graceful fallback.** ``jobs=1``, a single task, a callable, task or
  result that does not pickle, or a worker that dies mid-run all fall
  back to plain in-process execution of whatever has not completed; the
  warning names a dead worker and its exit code. A task's own exception
  propagates as the object it was, exactly as it would serially, with a
  :class:`WorkerError` naming the worker and carrying the remote
  traceback as its cause.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
import warnings
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ParallelRunner", "TaskTimeout", "WorkerError", "sleep_task"]

#: start method of every worker process
START_METHOD = "spawn"

#: marks a slot whose task has not produced a result yet
_PENDING = object()

#: pickling a closure/lambda fails with one of these, depending on path
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError, ValueError)


class TaskTimeout(RuntimeError):
    """A sweep's pooled per-task time budget expired."""


class WorkerError(RuntimeError):
    """A worker failed or could not be reached; the message says which,
    and ``worker`` is its index."""

    def __init__(self, message: str, worker: int) -> None:
        super().__init__(message)
        self.worker = worker


class _Unpicklable(WorkerError):
    """The callable, a chunk or a reply does not pickle."""


def _worker_main(conn: Any, fn: Callable[..., Any]) -> None:
    """Child entry point: answer each chunk with ``fn`` until the pipe closes."""
    with conn:
        while True:
            try:
                chunk = conn.recv()
            except EOFError:
                return
            try:
                reply: Tuple[Any, ...] = ("ok", [fn(**kwargs) for kwargs in chunk])
            except BaseException as exc:
                reply = ("error", traceback.format_exc(), exc)
            try:
                conn.send(reply)
            except Exception:  # the result, or the exception, does not pickle
                text = reply[1] if reply[0] == "error" else traceback.format_exc()
                conn.send(("unpicklable", text))


def _died(i: int, proc: Any, when: str) -> WorkerError:
    """Worker ``i``'s error once its pipe broke: its index and exit code."""
    proc.join(timeout=10)
    return WorkerError(f"worker {i} died {when} (exitcode {proc.exitcode})", i)


def _unpicklable(i: int, exc: BaseException) -> _Unpicklable:
    return _Unpicklable(f"worker {i}: {type(exc).__name__}: {exc}", i)


def _send(conn: Any, i: int, proc: Any, chunk: List[Dict[str, Any]]) -> None:
    try:
        conn.send(chunk)
    except _PICKLE_ERRORS as exc:
        raise _unpicklable(i, exc) from exc
    except OSError:
        raise _died(i, proc, "before a chunk")


def _recv(conn: Any, i: int, proc: Any) -> Tuple[Any, ...]:
    """Worker ``i``'s ``("ok", results)`` or ``("error", text, exc)``."""
    try:
        reply = conn.recv()
    except (EOFError, OSError):
        raise _died(i, proc, "mid-chunk")
    except _PICKLE_ERRORS as exc:
        raise _unpicklable(i, exc) from exc
    if reply[0] == "unpicklable":
        raise _Unpicklable(f"worker {i}: {reply[1].strip().splitlines()[-1]}", i)
    return reply


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

    Tasks are dispatched in chunks sized for about four rounds per worker,
    so stragglers rebalance.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None) -> None:
        if jobs <= 0:
            jobs = multiprocessing.cpu_count()
        self.jobs = jobs
        self.timeout = timeout
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
        :class:`TaskTimeout` directly. The workers never outlive the call.
        """
        queue = deque(self._chunks(len(tasks)))
        deadline = (
            time.monotonic() + self.timeout * len(tasks)
            if self.timeout is not None
            else None
        )
        ctx = multiprocessing.get_context(START_METHOD)
        conns: List[Any] = []
        procs: List[Any] = []
        busy: Dict[Any, Tuple[int, range]] = {}
        failed: Optional[Tuple[int, str, BaseException]] = None
        try:
            for i in range(min(self.jobs, len(queue))):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                conns.append(parent_conn)
                proc = ctx.Process(target=_worker_main, args=(child_conn, fn), daemon=True)
                try:
                    proc.start()  # pickles fn, here, synchronously
                except _PICKLE_ERRORS as exc:
                    raise _unpicklable(i, exc) from exc
                finally:
                    child_conn.close()
                procs.append(proc)
            idle = list(range(len(procs)))
            while failed is None and (queue or busy):
                while idle and queue:
                    i, chunk = idle.pop(), queue.popleft()
                    _send(conns[i], i, procs[i], [tasks[j] for j in chunk])
                    busy[conns[i]] = (i, chunk)
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
                    reply = _recv(conn, i, procs[i])
                    if reply[0] == "error":
                        failed = (i, reply[1], reply[2])
                        break
                    for index, value in zip(chunk, reply[1]):
                        results[index] = value
                    idle.append(i)
        except _Unpicklable as exc:
            return f"sweep tasks are not picklable ({exc}); running in-process"
        except WorkerError as exc:
            return (
                f"worker pool unavailable ({type(exc).__name__}: {exc}); "
                "finishing sweep in-process"
            )
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join(timeout=10)
        if failed is not None:
            i, text, exc = failed
            raise exc from WorkerError(f"worker {i} failed:\n{text}", i)
        return None
