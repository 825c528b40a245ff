"""Long-lived stateful worker processes.

:class:`~repro.runner.pool.ParallelRunner` is fire-and-forget: each task
is one pickled function call and the worker keeps nothing between tasks.
Sharded simulation needs the opposite shape — a worker that *builds* an
expensive state once (an island's whole sub-farm) and is then stepped in
lockstep thousands of times. :class:`PersistentWorkerPool` provides it:

* one spawned process per worker, same ``spawn`` discipline as the pool
  (no fork-inherited state, identical behavior on every platform);
* a duplex pipe per worker speaking a tiny op protocol:
  ``("call", method, payload)`` invokes ``getattr(state, method)(payload)``
  and answers ``("ok", result)`` or ``("error", traceback_text)``;
  ``("stop",)`` answers with the worker's peak RSS and exits;
* **inline mode** (``inline=True``): the states live in this process and
  calls run directly, *by reference* — ``init_fn``, ``call`` and the
  caller are handed the very objects the other side holds, nothing is
  copied or pickled. The contract that makes this the same run as the
  piped one belongs to the callers: what crosses the boundary is an
  immutable value (neither side mutates an init arg, a payload or a
  result after handing it over), and a worker's history is a function
  of what it was built from and the payloads it received. Under that
  contract ``shards=1`` (in-process, by reference) against ``shards>=2``
  (real pipes, real pickles) certifies that serialization changes
  nothing — the equivalence suite compares exactly those two.

Errors raised inside a worker surface in the parent as
:class:`WorkerError` carrying the remote traceback text; the pool is
torn down so no sibling is left stepping against a dead peer.
"""

from __future__ import annotations

import multiprocessing as mp
import resource
import traceback
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["PersistentWorkerPool", "WorkerError"]

#: parent-side guard (seconds) against a wedged worker; generous because
#: one epoch's work is normally milliseconds
DEFAULT_CALL_TIMEOUT = 600.0


class WorkerError(RuntimeError):
    """A worker failed; the message carries the remote traceback."""


def _worker_main(conn: Any, init_fn: Callable[[Any], Any], init_arg: Any) -> None:
    """Child entry point: build the state, then serve ops until stopped."""
    try:
        state = init_fn(init_arg)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "call":
                _op, method, payload = msg
                try:
                    conn.send(("ok", getattr(state, method)(payload)))
                except BaseException:
                    conn.send(("error", traceback.format_exc()))
            elif msg[0] == "stop":
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                conn.send(("ok", {"peak_rss_kb": int(peak_kb)}))
                break
            else:
                conn.send(("error", f"unknown op {msg[0]!r}"))
    finally:
        conn.close()


class PersistentWorkerPool:
    """N long-lived workers, each holding one ``init_fn(arg)`` state.

    Parameters
    ----------
    init_fn:
        Module-level callable building one worker's state; must be
        importable from a spawned child (like ``ParallelRunner`` tasks).
    init_args:
        One init argument per worker; the pool size is ``len(init_args)``.
    inline:
        Run everything in this process (no children), handing arguments
        and results over by reference — see module docstring for what
        that asks of the caller.
    call_timeout:
        Seconds to wait on any single worker reply before declaring the
        pool wedged.
    """

    def __init__(
        self,
        init_fn: Callable[[Any], Any],
        init_args: Sequence[Any],
        *,
        inline: bool = False,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ) -> None:
        self.n_workers = len(init_args)
        self.inline = bool(inline)
        self.call_timeout = call_timeout
        self._closed = False
        self._states: List[Any] = []
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        if self.n_workers == 0:
            raise ValueError("PersistentWorkerPool needs at least one worker")
        if self.inline:
            for arg in init_args:
                self._states.append(init_fn(arg))
            return
        ctx = mp.get_context("spawn")
        for arg in init_args:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main, args=(child_conn, init_fn, arg), daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        for i in range(self.n_workers):
            status, payload = self._recv(i)
            if status != "ready":  # pragma: no cover - defensive
                self.terminate()
                raise WorkerError(f"worker {i}: unexpected handshake {status!r}")

    # ------------------------------------------------------------------
    def _recv(self, i: int) -> Any:
        conn = self._conns[i]
        try:
            if not conn.poll(self.call_timeout):
                self.terminate()
                raise WorkerError(f"worker {i} gave no reply within {self.call_timeout}s")
            reply = conn.recv()
        except (EOFError, OSError):
            self.terminate()
            raise WorkerError(f"worker {i} died without a reply")
        if reply[0] == "error":
            self.terminate()
            raise WorkerError(f"worker {i} failed:\n{reply[1]}")
        return reply

    # ------------------------------------------------------------------
    def call(self, i: int, method: str, payload: Any = None) -> Any:
        """Invoke ``state.method(payload)`` on worker ``i``; return its result."""
        if self._closed:
            raise WorkerError("pool is closed")
        if self.inline:
            try:
                return getattr(self._states[i], method)(payload)
            except WorkerError:
                raise
            except Exception:
                self.terminate()
                raise WorkerError(f"worker {i} failed:\n{traceback.format_exc()}")
        self._conns[i].send(("call", method, payload))
        return self._recv(i)[1]

    def call_all(self, method: str, payloads: Sequence[Any]) -> List[Any]:
        """Invoke ``method`` on every worker concurrently; results in order."""
        if len(payloads) != self.n_workers:
            raise ValueError(f"need {self.n_workers} payloads, got {len(payloads)}")
        if self.inline:
            return [self.call(i, method, p) for i, p in enumerate(payloads)]
        if self._closed:
            raise WorkerError("pool is closed")
        for conn, payload in zip(self._conns, payloads):
            conn.send(("call", method, payload))
        return [self._recv(i)[1] for i in range(self.n_workers)]

    # ------------------------------------------------------------------
    def stop(self) -> List[Optional[dict]]:
        """Graceful shutdown. Returns per-worker stats (``peak_rss_kb``),
        aligned with worker index; inline pools return an empty list (no
        child processes to account)."""
        if self._closed:
            return []
        self._closed = True
        if self.inline:
            self._states = []
            return []
        stats: List[Optional[dict]] = []
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            stat: Optional[dict] = None
            try:
                if conn.poll(self.call_timeout):
                    status, payload = conn.recv()
                    if status == "ok":
                        stat = payload
            except (EOFError, OSError):
                pass
            stats.append(stat)
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        return stats

    def terminate(self) -> None:
        """Hard teardown (error paths); safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        self._states = []
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.terminate()
