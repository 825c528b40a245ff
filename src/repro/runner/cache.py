"""Content-addressed on-disk result cache for sweep tasks.

A task's cache key is the stable hash of *everything that determines its
result*: the experiment name, the full keyword arguments (grid point +
fixed parameters + derived seed), and a fingerprint of the simulator's
own source code. Editing any ``repro`` module changes the fingerprint
and silently invalidates the whole cache; editing one grid point's
parameters invalidates only that entry. Hits are exact replays — the
stored value is the task's result mapping, JSON round-tripped.

Results that are not JSON-serializable are simply not cached (the sweep
still returns them); the cache never changes what a sweep computes, only
whether it recomputes.

The cache directory resolves, in order: the ``root`` argument, the
``GULFSTREAM_CACHE_DIR`` environment variable, ``$XDG_CACHE_HOME`` /
``~/.cache`` + ``gulfstream-sim``. Invalidation is a directory delete
(``ResultCache().clear()`` or ``rm -rf``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Mapping, Optional

from repro.runner.seeding import canonical_json

__all__ = ["ResultCache", "code_fingerprint", "default_cache_dir"]

#: sentinel distinguishing "no entry" from a cached ``None``
MISS = object()

_FINGERPRINT: Optional[str] = None


def default_cache_dir() -> pathlib.Path:
    """``$GULFSTREAM_CACHE_DIR`` or the platform user cache directory."""
    env = os.environ.get("GULFSTREAM_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "gulfstream-sim"


def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the installed ``repro`` package.

    Computed once per process; any source edit (new file, deleted file,
    changed content) yields a different fingerprint, so stale results can
    never be replayed across code changes.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        pkg_root = pathlib.Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _FINGERPRINT = h.hexdigest()[:16]
    return _FINGERPRINT


class ResultCache:
    """Content-addressed store of task results under one directory.

    Entries are ``<root>/<key>.json`` where ``key`` is a SHA-256 over the
    canonical JSON of ``{experiment, kwargs, fingerprint}``: a task's
    result is a function of its arguments and the code, nothing else.
    ``hits`` / ``misses`` / ``stores`` count this instance's traffic so
    benches can report a hit rate.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------
    def key(self, experiment: str, kwargs: Mapping[str, Any]) -> str:
        payload = canonical_json(
            {
                "experiment": experiment,
                "kwargs": dict(kwargs),
                "fingerprint": self.fingerprint,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    # -- traffic -------------------------------------------------------
    def get(self, key: str) -> Any:
        """The stored result, or the module-level ``MISS`` sentinel."""
        path = self._path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return MISS
        if not isinstance(doc, dict) or "result" not in doc:
            # well-formed JSON that is not one of our entries (truncated
            # rewrite, foreign file): a miss, and the bad entry is evicted
            # so the next put can heal it
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return MISS
        self.hits += 1
        return doc["result"]

    def put(self, key: str, result: Any) -> bool:
        """Store one result; returns False (and stores nothing) if the
        value does not survive a JSON round-trip.

        ``allow_nan=False`` keeps entries strict JSON: a result carrying
        NaN/Infinity is refused like any other unserializable value,
        instead of silently writing a file no strict parser (our own
        ``get`` included) could read back.
        """
        try:
            text = json.dumps({"key": key, "result": result}, allow_nan=False)
        except (TypeError, ValueError):
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        # unique per-writer tmp in the same directory: concurrent pool
        # workers storing the same key each write their own file and the
        # last os.replace wins atomically — a shared <key>.tmp would let
        # two writers interleave before either rename
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stores += 1
        return True

    # -- maintenance ---------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if not self.root.is_dir():
            return 0
        n = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json")) if self.root.is_dir() else 0
