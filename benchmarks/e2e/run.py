"""The full-stack, layer-attributed GulfStream benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE]
    python3 benchmarks/e2e/run.py agree A.json B.json

Every repetition of a workload runs in a fresh child (``e2e_workloads.py``)
with the same seed, so the repetitions simulate the identical run: host
times are medians over them, simulated metrics come from the first and the
``sim_digest`` of all of them must agree. ``--trace 1`` runs the workload
once plain and once under cProfile and reports the per-layer metrics
instead. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from e2e_layers import LAYERS, REPO_ROOT

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("discovery", "steady", "faults", "traffic")

#: fewest repetitions of an untraced run (set-up time is their median)
MIN_REPS = 3
#: stop adding repetitions once a run has taken this long, whatever --seconds
RUN_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 150.0

class Headline(NamedTuple):
    """A simulated headline number that exists on one workload only."""

    workload: str
    layer_metric: str
    unit: str
    better: str
    bound: float


#: BENCHMARK.json can hold only metrics every workload reports, so these are
#: printed here, carried in the per-layer metrics, and compared by ``agree``
HEADLINE = {
    "detect_p50_sim_s": Headline(
        "faults", "gulfstream.central.detect_p50_sim_s", "sim_s", "lower", 0.05
    ),
    "detect_p90_sim_s": Headline(
        "faults", "gulfstream.central.detect_p90_sim_s", "sim_s", "lower", 0.05
    ),
    "availability": Headline(
        "traffic", "workload.traffic.availability", "ratio", "higher", 0.005
    ),
    "req_p99_sim_ms": Headline(
        "traffic", "workload.traffic.req_p99_sim_ms", "sim_ms", "lower", 0.05
    ),
    "moves_per_sim_hour": Headline(
        "traffic", "workload.autoscaler.moves_per_sim_hour", "1/h", "higher", 0.05
    ),
}


class BenchmarkError(Exception):
    """A repetition could not be run; no result may be printed."""


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def spawn_rep(workload: str, seed: int, profile: bool, handicap_us: float) -> Dict[str, Any]:
    """Run one repetition in a fresh child and return its record."""
    cmd = [
        sys.executable,
        str(HERE / "e2e_workloads.py"),
        workload,
        "--seed", str(seed),
        "--profile", "1" if profile else "0",
        "--handicap-us", repr(handicap_us),
        "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: repetition exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: repetition failed\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _timing(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median of the samples, with quartiles and n when there are enough."""
    out: Dict[str, Any] = {
        "value": statistics.median(samples), "unit": unit, "n": len(samples),
        "samples": list(samples),
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _problems(reps: Sequence[Dict[str, Any]]) -> List[str]:
    first = reps[0]
    problems = list(first["problems"])
    for rep in reps[1:]:
        if rep["sim_digest"] != first["sim_digest"]:
            problems.append("sim_digest differs between repetitions of one seed")
        if rep["counts"] != first["counts"]:
            problems.append("layer counts differ between repetitions of one seed")
    return problems


def run_plain(workload: str, seed: int, seconds: float, handicap_us: float) -> Dict[str, Any]:
    """The untraced run: repetitions until ``seconds`` have been measured."""
    began = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    measured = 0.0
    while len(reps) < MIN_REPS or (
        measured < seconds and time.perf_counter() - began < RUN_BUDGET_S
    ):
        reps.append(spawn_rep(workload, seed, False, handicap_us))
        measured += sum(reps[-1]["wall_s"])
    return summarize_plain(reps)


def summarize_plain(reps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the repetitions of one untraced run into its result."""
    first = reps[0]
    frames = first["counts"]["net.segment.frames_sent"]
    metrics = {
        "wall_s": _timing([w for rep in reps for w in rep["wall_s"]], "s"),
        "setup_s": _timing([rep["setup_s"] for rep in reps], "s"),
        "peak_rss_mb": {"value": max(rep["peak_rss_mb"] for rep in reps), "unit": "MB"},
        "stable_time_sim_s": {"value": first["stable_time_sim_s"] or 0.0, "unit": "sim_s"},
        "frames_per_adapter_sim_s": {
            "value": frames / (first["adapters"] * first["sim_seconds"]), "unit": "1/sim_s"
        },
    }
    for name, value in first["headline"].items():
        metrics[name] = {"value": value, "unit": HEADLINE[name].unit}
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "reps": len(reps),
        "adapters": first["adapters"],
        "sim_seconds": first["sim_seconds"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "failures": first["failures"],
        "problems": _problems(reps),
        "sim_digest": first["sim_digest"],
        "counts": first["counts"],
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, handicap_us: float) -> Dict[str, Any]:
    """The traced run: one plain repetition for the counts and the overhead
    base, one under cProfile for the per-layer self times."""
    result = summarize_traced(
        spawn_rep(workload, seed, False, handicap_us), spawn_rep(workload, seed, True, handicap_us)
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def summarize_traced(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Fold a plain and a profiled repetition into the per-layer result."""
    profile = traced["profile"]
    adapter_seconds = plain["adapters"] * plain["sim_seconds"]
    values: Dict[str, float] = dict(plain["counts"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = profile["self_s"][layer]
        values[f"{layer}.calls"] = profile["calls"][layer]
    values["sim.engine.events_per_s"] = plain["counts"]["sim.engine.events"] / sum(plain["wall_s"])
    values["trace.overhead_ratio"] = statistics.median(traced["wall_s"]) / statistics.median(
        plain["wall_s"]
    )
    for name, head in HEADLINE.items():
        values[head.layer_metric] = plain["headline"].get(name, 0.0)
    # BENCHMARK.json is the one place that names the per-layer metrics and
    # their units; a value it does not declare, or declares and we lack, is
    # a KeyError here and in the smoke test
    declared = _benchmark_json()["per_layer"]
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in declared}
    if values:
        raise KeyError(f"metrics BENCHMARK.json does not declare: {sorted(values)}")
    return {
        "workload": plain["workload"],
        "seed": plain["seed"],
        "adapters": plain["adapters"],
        "sim_seconds": plain["sim_seconds"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "failures": plain["failures"],
        "problems": _problems([plain, traced]),
        "sim_digest": plain["sim_digest"],
        "metrics": metrics,
        "us_per_adapter_s": {
            layer: profile["self_s"][layer] * 1e6 / adapter_seconds for layer in LAYERS
        },
        "edges": profile["edges"],
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def report(result: Dict[str, Any], kind: str) -> None:
    """Print every metric by name with its unit, then the result line with
    the metrics BENCHMARK.json declares under ``kind``."""
    workload = result["workload"]
    print(
        f"# {workload}: seed {result['seed']}, {result['adapters']} adapters, "
        f"{result['sim_seconds']:.1f} simulated s measured, sim_digest {result['sim_digest'][:16]}"
    )
    if workload == "traffic":
        print("# traffic: open loop on the simulated clock, generator lateness 0 by construction")
    for name, m in result["metrics"].items():
        spread = f"  (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n {m['n']})" if "q1" in m else ""
        print(f"{workload:<10} {name:<44} {m['value']:>16.6f} {m['unit']}{spread}")
    for layer, micros in result.get("us_per_adapter_s", {}).items():
        print(f"{workload:<10} {layer + '.us_per_adapter_s':<44} {micros:>16.6f} us")
    share = result["failed"] / result["attempted"]
    print(f"{workload:<10} {'failed_share':<44} {share:>16.6f} ratio  "
          f"({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"# {workload}: failed: {failure}")
    for problem in result["problems"]:
        print(f"# {workload}: INCORRECT: {problem}")
    declared = {m["name"] for m in _benchmark_json()[kind]}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
            if name in declared
        },
    }))


@functools.lru_cache(maxsize=None)
def _benchmark_json() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# agree: do two result files tell the same story?
# ----------------------------------------------------------------------
def _spread(metric: Dict[str, Any]) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """``ok``, ``worse`` (B's median is worse than A's by more than the
    bound) or ``unresolved`` (a spread wider than the bound hides the
    answer, unless every sample of B beats every sample of A)."""
    sign = 1.0 if better == "lower" else -1.0
    if max(_spread(a), _spread(b)) > bound:
        sa, sb = a.get("samples", [a["value"]]), b.get("samples", [b["value"]])
        b_beats_a = max(sign * x for x in sb) < min(sign * x for x in sa)
        return "ok" if b_beats_a else "unresolved"
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    return "worse" if worse_by > bound else "ok"


def agree(path_a: str, path_b: str) -> int:
    a_all = json.loads(Path(path_a).read_text())["workloads"]
    b_all = json.loads(Path(path_b).read_text())["workloads"]
    rules = {m["name"]: (m["better"], m["bound"]) for m in _benchmark_json()["end_to_end"]}
    rules.update({name: (head.better, head.bound) for name, head in HEADLINE.items()})
    worse = 0
    for workload in WORKLOADS:
        if workload not in a_all or workload not in b_all:
            continue
        a, b = a_all[workload], b_all[workload]
        same = "identical" if a["sim_digest"] == b["sim_digest"] else "DIFFERENT"
        print(f"# {workload}: sim_digest {same}")
        for name, (better, bound) in rules.items():
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            ma, mb = a["metrics"][name], b["metrics"][name]
            result = verdict(ma, mb, better, bound)
            worse += result == "worse"
            change = (mb["value"] - ma["value"]) / abs(ma["value"]) if ma["value"] else 0.0
            print(f"{workload:<10} {name:<26} {ma['value']:>14.6f} -> {mb['value']:>14.6f} "
                  f"{ma['unit']:<8} {change:>+8.1%}  bound {bound:<6} {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["agree"]:
        if len(argv) != 3:
            print("usage: run.py agree A.json B.json", file=sys.stderr)
            return 2
        return agree(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(_benchmark_json()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results to this JSON file")
    parser.add_argument("--handicap-us", type=float, default=0.0,
                        help="sensitivity check only: busy-wait before every Segment.transmit")
    args = parser.parse_args(argv)
    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            if args.trace:
                result = run_traced(workload, args.seed, args.handicap_us)
            else:
                result = run_plain(workload, args.seed, args.seconds, args.handicap_us)
            results[workload] = result
            report(result, "per_layer" if args.trace else "end_to_end")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(
            json.dumps({"host": host_fingerprint(), "workloads": results}, indent=1) + "\n"
        )
    return 0 if not any(r["problems"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
