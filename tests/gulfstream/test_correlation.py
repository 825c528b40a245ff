"""Event correlation unit tests (§3): node/switch inference."""

from repro.gulfstream.correlation import CorrelationEngine
from repro.net.addressing import IPAddress


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, kind, subject, **detail):
        self.events.append((kind, subject))

    def kinds(self, k):
        return [s for kind, s in self.events if kind == k]


def engine_with_node(n_adapters=3, node="n0"):
    pub = Recorder()
    eng = CorrelationEngine(pub)
    ips = [IPAddress(f"10.0.0.{i + 1}") for i in range(n_adapters)]
    for ip in ips:
        eng.adapter_event(ip, node, up=True)
    pub.events.clear()
    return eng, pub, ips


def test_node_failed_only_when_all_adapters_down():
    eng, pub, ips = engine_with_node(3)
    eng.adapter_event(ips[0], "n0", up=False)
    eng.adapter_event(ips[1], "n0", up=False)
    assert pub.kinds("node_failed") == []
    eng.adapter_event(ips[2], "n0", up=False)
    assert pub.kinds("node_failed") == ["n0"]
    assert eng.node_status("n0") is False


def test_node_recovers_on_first_adapter_back():
    """'As soon as one of these adapters recovers, we infer that the
    correlated node ... has recovered.'"""
    eng, pub, ips = engine_with_node(2)
    for ip in ips:
        eng.adapter_event(ip, "n0", up=False)
    eng.adapter_event(ips[0], "n0", up=True)
    assert pub.kinds("node_recovered") == ["n0"]
    assert eng.node_status("n0") is True


def test_duplicate_event_does_not_republish():
    eng, pub, ips = engine_with_node(1)
    eng.adapter_event(ips[0], "n0", up=False)
    eng.adapter_event(ips[0], "n0", up=False)
    assert pub.kinds("node_failed") == ["n0"]


def test_switch_failed_when_all_wired_adapters_down():
    pub = Recorder()
    eng = CorrelationEngine(pub)
    ips = [IPAddress(f"10.0.0.{i + 1}") for i in range(2)]
    for ip in ips:
        eng.adapter_switch[ip] = "sw0"
        eng.adapter_event(ip, f"n{int(ip)}", up=True)
    eng.adapter_event(ips[0], "a", up=False)
    assert pub.kinds("switch_failed") == []
    eng.adapter_event(ips[1], "b", up=False)
    assert pub.kinds("switch_failed") == ["sw0"]
    eng.adapter_event(ips[0], "a", up=True)
    assert pub.kinds("switch_recovered") == ["sw0"]


def test_switch_not_inferred_from_partial_knowledge():
    """Never infer equipment failure before every wired adapter has
    reported at least once."""
    pub = Recorder()
    eng = CorrelationEngine(pub)
    a, b = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
    eng.adapter_switch[a] = eng.adapter_switch[b] = "sw0"
    eng.adapter_event(a, "na", up=False)  # b never reported
    assert pub.kinds("switch_failed") == []
    assert eng.switch_status("sw0") is None or eng.switch_status("sw0") is False


def test_unknown_component_status_is_none():
    eng = CorrelationEngine(Recorder())
    assert eng.node_status("ghost") is None
    assert eng.switch_status("ghost") is None


def test_load_wiring_from_db():
    from repro.gulfstream.configdb import ConfigDatabase, ExpectedAdapter

    db = ConfigDatabase()
    db.add(ExpectedAdapter(IPAddress("10.0.0.1"), "n0", "sw7", 0, 1))
    eng = CorrelationEngine(Recorder())
    eng.load_wiring_from_db(db)
    assert eng.adapter_switch[IPAddress("10.0.0.1")] == "sw7"
    assert eng.adapter_node[IPAddress("10.0.0.1")] == "n0"


def _scans(eng):
    """Each component's adapters by a full scan of the adapter maps."""
    return [
        {c: {ip for ip, v in wiring.items() if v == c} for c in set(wiring.values())}
        for wiring in (eng.adapter_node, eng.adapter_switch, eng.adapter_router)
    ]


def _indexes(eng):
    return [
        {c: eng._node_adapters(c) for c in set(eng.adapter_node.values())},
        {c: eng._switch_adapters(c) for c in set(eng.adapter_switch.values())},
        {c: eng._router_adapters(c) for c in set(eng.adapter_router.values())},
    ]


def test_component_indexes_equal_full_scans_through_wiring_move_and_crash():
    """The node/switch/router → adapters indexes answer what a scan of every
    known adapter would, after a wiring load, a move and a crash."""
    from repro.gulfstream.configdb import ConfigDatabase, ExpectedAdapter

    db = ConfigDatabase()
    for i in range(6):
        db.add(ExpectedAdapter(
            IPAddress(f"10.0.0.{i + 1}"), f"n{i // 2}", f"sw{i % 3}", i % 2, 1,
            router="r0" if i < 4 else None,
        ))
    pub = Recorder()
    eng = CorrelationEngine(pub)
    eng.load_wiring_from_db(db)
    for i in range(6):
        eng.adapter_event(IPAddress(f"10.0.0.{i + 1}"), f"n{i // 2}", up=True)
    assert _indexes(eng) == _scans(eng)
    assert eng._router_adapters("r0") == {IPAddress(f"10.0.0.{i}") for i in range(1, 5)}
    # a move: the adapter re-wired to another switch and reported by another node
    moved = IPAddress("10.0.0.1")
    eng.adapter_switch[moved] = "sw2"
    eng.adapter_event(moved, "n2", up=True)
    assert _indexes(eng) == _scans(eng)
    assert eng._node_adapters("n0") == {IPAddress("10.0.0.2")}
    # a crash: both adapters of n1 down, the node inferred down
    for ip in ("10.0.0.3", "10.0.0.4"):
        eng.adapter_event(IPAddress(ip), "n1", up=False)
    assert _indexes(eng) == _scans(eng)
    assert pub.kinds("node_failed") == ["n1"] and eng.node_status("n1") is False
    assert eng.node_status("ghost") is None and eng._node_adapters("ghost") == set()
