"""What a cold discovery holds per adapter, pinned (docs/PROTOCOL.md §8,
"The memory bound").

The beacon phase is N² by design (§2.1): every adapter hears every other
adapter of its VLAN. What the simulator keeps of it must not be boxed
Python objects per (beacon, receiver), and what is only read in one phase
must not outlive it. A discovery of ``oceano64`` (138 adapters, the e2e
``discovery`` workload's build at a quarter of the size) runs under
``tracemalloc``; afterwards

* no adapter with an installed view still holds the ``peers`` it collected
  while beaconing,
* no member's join time is stored apart from its view's first install,
* the beacon backlog's columns and the OS model's and timers' prefetched
  RNG draws are unboxed ``array``s,
* the traced peak stays at or below ``PEAK_KB_PER_ADAPTER``.

The bound sits between the two representations' peaks on Python 3.11:
≈ 18.8 KB per adapter boxed (a deque of tuples per adapter, lists of
floats, a join-time dict per member) and ≈ 11.3 KB unboxed.
"""

from array import array
import tracemalloc

import pytest

from repro.checks import CHAOS_PARAMS, build_named_farm, monitor_trace
from repro.node.osmodel import OSParams

PEAK_KB_PER_ADAPTER = 15.0


@pytest.fixture(scope="module")
def discovered():
    farm = build_named_farm(
        "oceano64", seed=1, params=CHAOS_PARAMS, os_params=OSParams.fast(),
        trace=monitor_trace(),
    )
    tracemalloc.start()
    try:
        farm.start()
        stable = farm.run_until_stable(timeout=180.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stable is not None
    protos = [p for d in farm.daemons.values() for p in d.protocols.values()]
    assert len(protos) == len(farm.fabric.nics) == 138
    return farm, protos, peak


def test_installed_views_drop_the_beacon_phase_state(discovered):
    _, protos, _ = discovered
    with_view = [p for p in protos if p.view is not None]
    assert len(with_view) == len(protos)
    assert [p.nic.name for p in with_view if p.peers] == []
    assert sum(len(p._joined) for p in protos) == 0


def test_backlog_and_rng_buffers_are_unboxed(discovered):
    farm, protos, _ = discovered
    for p in protos:
        assert type(p._backlog.keys) is array and p._backlog.keys.typecode == "d"
        assert type(p._backlog.seqs) is array and p._backlog.seqs.typecode == "q"
    hosts = farm.hosts.values()
    assert all(type(h.os._buf) is array for h in hosts)
    assert any(len(h.os._buf) for h in hosts)
    timers = [p.hb._send_timer for p in protos if p.hb is not None]
    assert timers and all(t.jitter for t in timers), "ring heartbeats send on jittered timers"
    assert all(type(t._jbuf) is array for t in timers)


def test_discovery_peak_per_adapter(discovered):
    _, protos, peak = discovered
    per_adapter_kb = peak / 1024 / len(protos)
    assert per_adapter_kb <= PEAK_KB_PER_ADAPTER, f"{per_adapter_kb:.1f} KB per adapter"
