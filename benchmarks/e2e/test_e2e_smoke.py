"""Smoke test of the e2e benchmark at toy sizes.

Tier-1 collects this file, so it must stay well under 10 s: every workload
runs once plain and once profiled in this process (no children) on a
16-node farm.
"""

from __future__ import annotations

import json
from collections import namedtuple

import pytest

import e2e_layers
import e2e_workloads
import run

TOY_SIZES = {
    "discovery": {"farm": "oceano16"},
    "steady": {"farm": "oceano16", "windows_n": 2, "window_sim_s": 5.0},
    "faults": {"farm": "oceano16", "n_faults": 6, "n_moves": 1, "span_sim_s": 12.0},
    "traffic": {
        "domains": 2, "front_ends": 1, "back_ends": 3, "spares": 2,
        "duration": 5.0, "rate": 100.0, "n_users": 1000,
    },
}

BENCHMARK = json.loads((e2e_layers.REPO_ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def test_benchmark_json_names_the_workloads_the_runner_has():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(e2e_workloads.SIZES) == set(run.WORKLOADS) == set(TOY_SIZES)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_yields_every_declared_metric(workload):
    plain = e2e_workloads.run_rep(workload, seed=1, sizes=TOY_SIZES[workload])
    again = e2e_workloads.run_rep(workload, seed=1, profile=True, sizes=TOY_SIZES[workload])

    result = run.summarize_plain([plain, again])
    assert result["problems"] == [], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    applicable = {n for n, head in run.HEADLINE.items() if head.workload == workload}
    assert set(result["metrics"]) == _declared("end_to_end") | applicable
    assert all(result["metrics"][name]["value"] > 0 for name in _declared("end_to_end"))

    traced = run.summarize_traced(plain, again)
    assert traced["problems"] == []
    assert set(traced["metrics"]) == _declared("per_layer")
    assert traced["metrics"]["sim.engine.self_s"]["value"] > 0
    assert traced["metrics"]["sim.engine.events"]["value"] > 0


def test_a_different_seed_is_a_different_simulation():
    sizes = TOY_SIZES["faults"]
    one = e2e_workloads.run_rep("faults", seed=1, sizes=sizes)
    two = e2e_workloads.run_rep("faults", seed=2, sizes=sizes)
    assert one["sim_digest"] != two["sim_digest"]
    assert "sim_digest differs between repetitions of one seed" in run.summarize_plain(
        [one, two]
    )["problems"]


def test_unnotified_actions_are_the_failed_ones():
    Note = namedtuple("Note", "time kind subject")
    Injected = e2e_workloads.Injected
    injected = [
        Injected(10.0, "node_failed", "alpha-be-1"),
        Injected(35.0, "node_recovered", "alpha-be-1"),
        Injected(11.0, "adapter_failed", "10.100.0.4"),
        Injected(20.0, "move_completed", "10.99.0.9"),
    ]
    history = [
        Note(5.0, "node_failed", "alpha-be-1"),  # before the action: not its notice
        Note(12.5, "node_failed", "alpha-be-1"),
        Note(14.0, "adapter_failed", "10.100.0.5"),  # another adapter
        Note(36.0, "node_recovered", "alpha-be-1"),
    ]
    latencies, unnotified = e2e_workloads.judge_injected(injected, history)
    assert latencies == [2.5]
    assert unnotified == [injected[2], injected[3]]
    assert len(unnotified) / len(injected) == 0.5


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert e2e_workloads.percentile(values, 0.50) == 50.0
    assert e2e_workloads.percentile(values, 0.90) == 90.0
    assert e2e_workloads.percentile([], 0.90) == 0.0


def test_every_source_file_belongs_to_exactly_one_layer():
    files = sorted(e2e_layers.SRC_ROOT.rglob("*.py"))
    assert files
    for path in files:
        module = e2e_layers.module_of(str(path))
        assert module is not None
        matches = e2e_layers.layers_matching(module)
        assert len(matches) == 1, f"{module} is claimed by {matches or 'no layer'}"
        assert e2e_layers.layer_of(str(path)) == matches[0]
    assert e2e_layers.layer_of("~") == e2e_layers.HOST_LAYER
    assert len(set(e2e_layers.LAYERS)) == len(e2e_layers.LAYERS)


def test_agree_verdicts():
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "samples": [0.99, 1.0, 1.01]}
    slower = {"value": 1.2, "q1": 1.19, "q3": 1.21, "samples": [1.19, 1.2, 1.21]}
    noisy = {"value": 1.0, "q1": 0.8, "q3": 1.3, "samples": [0.8, 1.0, 1.3]}
    assert run.verdict(steady, steady, "lower", 0.15) == "ok"
    assert run.verdict(steady, slower, "lower", 0.15) == "worse"
    assert run.verdict(slower, steady, "lower", 0.15) == "ok"
    assert run.verdict(slower, steady, "higher", 0.15) == "worse"
    assert run.verdict(noisy, slower, "lower", 0.15) == "unresolved"
    faster = {"value": 0.5, "samples": [0.5, 0.5, 0.5]}
    assert run.verdict(noisy, faster, "lower", 0.15) == "ok"
