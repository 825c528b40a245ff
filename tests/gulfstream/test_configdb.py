"""Configuration database: population, queries, verification logic."""

import pytest

from repro.gulfstream.configdb import ConfigDatabase, ExpectedAdapter
from repro.net.addressing import IPAddress


def row(ip, node="n0", switch="sw0", port=0, vlan=1):
    return ExpectedAdapter(IPAddress(ip), node, switch, port, vlan)


def db_with(*rows):
    db = ConfigDatabase()
    for r in rows:
        db.add(r)
    return db


def test_add_and_lookup():
    db = db_with(row("10.0.0.1"))
    assert db.expected(IPAddress("10.0.0.1")).node == "n0"
    assert db.expected(IPAddress("10.0.0.2")) is None
    assert len(db) == 1


def test_remove():
    db = db_with(row("10.0.0.1"))
    db.remove(IPAddress("10.0.0.1"))
    assert len(db) == 0


def test_set_vlan_updates_row():
    db = db_with(row("10.0.0.1", vlan=1))
    db.set_vlan(IPAddress("10.0.0.1"), 7)
    assert db.expected(IPAddress("10.0.0.1")).vlan == 7
    with pytest.raises(KeyError):
        db.set_vlan(IPAddress("10.0.0.9"), 7)


def test_verify_clean():
    db = db_with(row("10.0.0.1", vlan=1), row("10.0.0.2", vlan=1, port=1))
    issues = db.verify([[IPAddress("10.0.0.1"), IPAddress("10.0.0.2")]])
    assert issues == []


def test_verify_missing():
    db = db_with(row("10.0.0.1"), row("10.0.0.2", port=1))
    issues = db.verify([[IPAddress("10.0.0.1")]])
    assert [i.kind for i in issues] == ["missing"]
    assert issues[0].ip == IPAddress("10.0.0.2")


def test_verify_unknown():
    db = db_with(row("10.0.0.1"))
    issues = db.verify([[IPAddress("10.0.0.1"), IPAddress("10.0.0.9")]])
    assert [i.kind for i in issues] == ["unknown"]


def test_verify_misplaced_minority_vlan():
    """An adapter grouped with a majority expecting a different VLAN is the
    misplaced one — not the majority."""
    db = db_with(
        row("10.0.0.1", vlan=1),
        row("10.0.0.2", vlan=1, port=1),
        row("10.0.0.3", vlan=2, port=2),
    )
    issues = db.verify([[IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), IPAddress("10.0.0.3")],])
    misplaced = [i for i in issues if i.kind == "misplaced"]
    assert len(misplaced) == 1 and misplaced[0].ip == IPAddress("10.0.0.3")
    # and it's also missing from its own vlan group? no: it's accounted for
    assert not any(i.kind == "missing" for i in issues)


def test_verify_uniform_group_not_misplaced():
    """A group whose members all expect the same VLAN is never flagged,
    whatever that VLAN is."""
    db = db_with(row("10.0.0.1", vlan=5), row("10.0.0.2", vlan=5, port=1))
    assert db.verify([[IPAddress("10.0.0.1"), IPAddress("10.0.0.2")]]) == []


def test_reads_writes_counters():
    db = db_with(row("10.0.0.1"))
    assert db.writes == 1
    db.expected(IPAddress("10.0.0.1"))
    db.verify([])
    assert db.reads >= 2


def test_from_fabric_snapshot():
    from repro.net.fabric import Fabric
    from repro.net.nic import NIC
    from repro.sim.engine import Simulator

    fab = Fabric(Simulator())
    fab.attach(NIC(IPAddress("10.0.0.1"), "n0", 0), "sw0", 1)
    fab.attach(NIC(IPAddress("10.0.0.2"), "n1", 0), "sw0", 2)
    db = ConfigDatabase.from_fabric(fab)
    assert len(db) == 2
    assert db.expected(IPAddress("10.0.0.2")).vlan == 2
