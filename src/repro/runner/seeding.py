"""Deterministic per-task seed derivation.

A sweep that fans out over a worker pool must not let scheduling order
influence results, and distinct grid points must not share RNG streams
(the bug class behind ``seed + n``-style derivations: two tasks that
happen to share ``n`` silently reuse the whole stream). Both problems
disappear if every task's seed is a pure function of *what the task is*:

    seed = stable_hash((experiment, grid_point, replicate, base_seed))

``stable_hash`` is SHA-256 over a canonical JSON rendering — stable
across processes (unlike ``hash()``, which is salted per interpreter),
across dict insertion orders (keys are sorted), and across Python
versions.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

__all__ = ["canonical_json", "stable_hash", "task_seed"]

#: seeds live in the non-negative signed-64-bit range every RNG accepts
_SEED_BITS = 63


def _coerce(value: Any) -> Any:
    """JSON fallback: render non-native values via ``repr``.

    ``repr`` of the parameter dataclasses (``GSParams``, ``OSParams``...)
    lists every field, so two configs hash equal iff they are equal.
    """
    return repr(value)


def canonical_json(obj: Any) -> str:
    """One canonical text rendering per value (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_coerce)


def stable_hash(obj: Any) -> int:
    """A process-stable hash of an arbitrary value, :data:`_SEED_BITS` wide."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << _SEED_BITS) - 1)


def task_seed(
    experiment: str,
    point: Optional[Mapping[str, Any]] = None,
    replicate: int = 0,
    base_seed: int = 0,
) -> int:
    """The seed for one task of one experiment.

    Parameters
    ----------
    experiment:
        Namespace for the sweep (for example ``"cli.fig5"``), so two
        experiments sweeping the same grid do not share streams.
    point:
        The grid point (parameter name → value).
    replicate:
        Replicate index, ``0..replicates-1`` — each replicate of the same
        point gets an independent seed.
    base_seed:
        The user's master seed; changing it re-randomizes every task.
    """
    return stable_hash(
        {
            "experiment": experiment,
            "point": dict(point or {}),
            "replicate": replicate,
            "base_seed": base_seed,
        }
    )
