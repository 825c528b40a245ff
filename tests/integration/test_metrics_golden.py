"""Golden metrics snapshot: the metrics plane's analogue of the golden trace.

The full 55-node Océano testbed is discovered to stability and the final
metrics snapshot — every counter, gauge, and histogram summary the
``--metrics-out`` flag would export — is pinned against a checked-in JSON
file. A change here means the *measured protocol behavior* changed (more
heartbeats, different GSC report bytes, extra drops), which must be a
deliberate, reviewed diff of the golden file, never an incidental one.

Regenerate (after an intentional protocol or instrumentation change) with:
``PYTHONPATH=src python tests/integration/test_metrics_golden.py --regen``
"""

from __future__ import annotations

import json
import pathlib

from repro.farm.builder import build_testbed
from repro.gulfstream.params import GSParams

GOLDEN = pathlib.Path(__file__).parent / "golden_oceano_metrics.json"

SEED = 2001


def _snapshot() -> dict:
    farm = build_testbed(55, seed=SEED, params=GSParams())
    farm.start()
    assert farm.run_until_stable(timeout=120.0) is not None
    reg = farm.sim.metrics
    reg.collect()
    # histograms keep their full value_dict (buckets included): bucket
    # placement is exactly the behavior a timing change would move
    return {m.key: m.value_dict() for m in reg}


def test_metrics_snapshot_matches_checked_in_golden():
    snap = _snapshot()
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    expected = golden["metrics"]
    assert set(snap) == set(expected), (
        "instrument set changed — if intentional, regenerate "
        "golden_oceano_metrics.json (see module docstring)"
    )
    mismatched = {k for k in snap if snap[k] != expected[k]}
    assert not mismatched, (
        f"measured values changed for {sorted(mismatched)} — if intentional, "
        "regenerate golden_oceano_metrics.json (see module docstring)"
    )


def _regenerate() -> None:
    snap = _snapshot()
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "metrics": snap}, indent=2, sort_keys=True) + "\n"
    )
    print(f"regenerated {GOLDEN} ({len(snap)} instruments)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print("pass --regen to rewrite the golden snapshot", file=sys.stderr)
        raise SystemExit(2)
