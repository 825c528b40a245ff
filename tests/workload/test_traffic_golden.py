"""Traffic rows pinned across revisions.

``test_traffic.py`` proves a case is deterministic within one tree, and the
jobs/shards checks prove it does not depend on the layout; neither notices
a change that moves every row the same way. This file pins the SHA-256 of
each row's canonical JSON for one QUICK case over every rate-profile shape,
with and without a chaos mix, so any change to the request stream, the
serving applications or the protocol under them shows up as a digest
mismatch. A change that means to move these rows regenerates them with
``PYTHONPATH=src python tests/workload/test_traffic_golden.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

import pytest

from repro.workload.traffic import run_traffic_case

#: the QUICK case of ``test_traffic.py``, with its domain count spelled out
CASE = dict(domains=2, duration=15.0, rate=80.0, n_users=50_000)
SEED = 0

#: (profile, mix) -> SHA-256 of the row's canonical JSON
GOLDEN: Dict[str, str] = {
    "diurnal/none": "44b49fa097fa7fc66d3ace083832234f845d0d8dbc6f78f1bfcda5b965022742",
    "diurnal/mixed": "9098f5d4a43670ef78c98181416bc25731c359e983f5c769adbb8155ea60796e",
    "flat/none": "4f0d2e6fc191e114180b851b89673545bc15f0016f6b5b0e5d005ef069fc7798",
    "flat/mixed": "da33198f7acd298f744603faf3b9941b35f4303e45c22d8de82a82a1931a81b0",
    "flash/none": "2f7abc1e8ae0bb0f998a8bd6101f6878829d36e79e3fd30c17fa326a4fd54255",
    "flash/mixed": "9d0b79655308009565864d4e98e7719dc9f633e22cafbb7c21d53428d4f7a6f6",
}


def row_digest(profile: str, mix: Optional[str]) -> str:
    row = run_traffic_case(case=0, seed=SEED, profile=profile, mix=mix, **CASE)
    canonical = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_traffic_row_matches_the_pinned_digest(key):
    profile, mix = key.split("/")
    assert row_digest(profile, None if mix == "none" else mix) == GOLDEN[key]


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        profile, mix = key.split("/")
        print(f'    "{key}": "{row_digest(profile, None if mix == "none" else mix)}",')
