"""Command-line interface: ``gulfstream-sim``.

Runs the canonical scenarios from a shell, so the reproduction can be
explored without writing Python::

    gulfstream-sim discover --nodes 55 --beacon 5
    gulfstream-sim fig5 --nodes 2,10,25,55 --beacon-times 5,10,20
    gulfstream-sim fig5 --jobs 4 --replicates 5 --cache
    gulfstream-sim storm --nodes 10 --duration 180
    gulfstream-sim move --domain-size 4
    gulfstream-sim detectors --members 32
    gulfstream-sim serve --rate 100 --event move
    gulfstream-sim workload --cases 3 --mix mixed --report slo.json

Every command prints a plain-text report; ``--seed`` makes any run exactly
reproducible. The sweep-shaped commands (``fig5``, ``detectors``, and
``discover`` with ``--replicates``) fan their independent runs out over
the parallel experiment fabric (:mod:`repro.runner`): ``--jobs N`` uses N
worker processes, ``--replicates N`` averages N independently-seeded runs
per point (tables gain ``*_sd`` confidence columns), and ``--cache``
replays unchanged points from the on-disk result cache. Results are
byte-identical for every ``--jobs`` value.

Each subcommand accepts exactly the options it reads; one it would ignore
is a usage error (exit 2). Every command except ``chaos`` and ``metrics``
takes ``--metrics-out PATH``: farm commands export the simulator's
:mod:`repro.metrics` registry (sampled every 5 simulated seconds), sweep
commands export the fabric's accounting registry. The format follows the
suffix (``.jsonl`` / ``.csv`` / ``.prom``); the ``metrics`` subcommand
prints one export or diffs two::

    gulfstream-sim fig5 --nodes 4 --metrics-out m.jsonl
    gulfstream-sim metrics m.jsonl
    gulfstream-sim metrics before.jsonl after.jsonl --tolerance 0.05
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import format_table, measure_stability, summarize_farm
from repro.gulfstream.params import GSParams
from repro.runner import ResultCache, run_sweep
from repro.workload.profiles import WORKLOAD_PROFILES

__all__ = ["main", "build_parser"]


def _csv_ints(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _csv_floats(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x]


def _result_cache(args):
    """The on-disk result cache when ``--cache`` was given, else None."""
    return ResultCache() if args.cache else None


def _sweep_options(args, experiment: str, metrics=None) -> dict:
    """The :func:`~repro.runner.run_sweep` options shared by sweep commands."""
    return dict(
        jobs=args.jobs,
        replicates=args.replicates,
        experiment=experiment,
        seed_arg="seed",
        base_seed=args.seed,
        cache=_result_cache(args),
        metrics=metrics,
    )


def _sweep_registry(args):
    """A standalone registry for sweep commands (only when requested).

    Sweeps run outside any simulator, so the registry keeps its default
    sample-index clock; :func:`repro.runner.run_sweep` records a sample
    when each sweep finishes.
    """
    if not args.metrics_out:
        return None
    from repro.metrics import MetricsRegistry

    return MetricsRegistry()


def _attach_sampler(args, farm) -> None:
    """Sample the farm simulator's registry every 5 simulated seconds.

    Only installed when ``--metrics-out`` was given: the sampler's timer
    events are inert but still count into ``events_executed``, so it must
    stay out of runs that golden-trace determinism tests fingerprint.
    """
    if args.metrics_out:
        from repro.metrics import PeriodicSampler

        PeriodicSampler(farm.sim, interval=5.0)


def _export_metrics(args, registry) -> None:
    """Write ``registry`` to ``--metrics-out`` (no-op when flag unset)."""
    if registry is None or not args.metrics_out:
        return
    from repro.metrics import write_metrics

    registry.sample()  # final state, whatever the sampling cadence was
    out = write_metrics(registry, args.metrics_out)
    print(f"metrics written to {out}", file=sys.stderr)


def _with_sd(columns: List[str], replicates: int, over: List[str]) -> List[str]:
    """Add the aggregation columns replicated sweeps grow."""
    if replicates <= 1:
        return columns
    out = []
    for col in columns:
        out.append(col)
        if col in over:
            out.append(f"{col}_sd")
    return out + ["replicates"]


# ----------------------------------------------------------------------
# sweep task functions (module-level: workers import them by reference)
# ----------------------------------------------------------------------
def _fig5_point(T_beacon: float, nodes: int, seed: int) -> dict:
    r = measure_stability(nodes, beacon_duration=T_beacon, seed=seed)
    return {"adapters": r.n_adapters, "stable_s": r.stable_time,
            "delta_s": r.delta}


def _discover_point(nodes: int, beacon: float, adapters: int, timeout: float,
                    seed: int) -> dict:
    r = measure_stability(nodes, beacon_duration=beacon, seed=seed,
                          adapters_per_node=adapters, timeout=timeout)
    return {"adapters": r.n_adapters, "stable_s": r.stable_time,
            "delta_s": r.delta}


def _detector_point(scheme: str, members: int, seed: int) -> dict:
    from repro.detectors import (
        AllPairsDetector, CentralPollDetector, DetectorHarness, DetectorParams,
        GossipDetector, RingDetector,
    )

    cls = {
        "ring (GulfStream)": RingDetector,
        "all-pairs (HACMP)": AllPairsDetector,
        "random ping [9]": GossipDetector,
        "central poll": CentralPollDetector,
    }[scheme]
    h = DetectorHarness(members, cls, DetectorParams(), seed=seed)
    h.start()
    h.run(until=20)
    load = h.load_stats()["frames_per_sec"]
    ip = h.crash(members // 2)
    h.run(until=60)
    return {"frames_per_sec": load, "detect_s": h.detection_time(ip)}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_discover(args) -> int:
    if args.replicates > 1:
        registry = _sweep_registry(args)
        rows = run_sweep(
            _discover_point, {},
            fixed={"nodes": args.nodes, "beacon": args.beacon,
                   "adapters": args.adapters, "timeout": args.timeout},
            **_sweep_options(args, "cli.discover", metrics=registry),
        )
        print(format_table(
            rows,
            columns=_with_sd(["adapters", "stable_s", "delta_s"],
                             args.replicates, over=["stable_s", "delta_s"]),
            title=f"discovery over {args.replicates} independently-seeded runs "
                  f"({args.nodes} nodes)",
        ))
        _export_metrics(args, registry)
        return 0
    params = GSParams(beacon_duration=args.beacon)
    from repro.farm import build_testbed

    farm = build_testbed(args.nodes, seed=args.seed, params=params,
                         adapters_per_node=args.adapters)
    _attach_sampler(args, farm)
    farm.start()
    stable = farm.run_until_stable(timeout=args.timeout)
    _export_metrics(args, farm.sim.metrics)
    if stable is None:
        print(f"discovery did not stabilize within {args.timeout}s", file=sys.stderr)
        return 1
    configured = params.beacon_duration + params.amg_stable_wait + params.gsc_stable_wait
    print(f"stable in {stable:.2f}s (configured {configured:.0f}s, "
          f"delta {stable - configured:.2f}s)")
    print(summarize_farm(farm))
    return 0


def cmd_fig5(args) -> int:
    registry = _sweep_registry(args)
    rows = run_sweep(
        _fig5_point,
        {"T_beacon": args.beacon_times, "nodes": args.nodes},
        **_sweep_options(args, "cli.fig5", metrics=registry),
    )
    print(format_table(
        rows,
        columns=_with_sd(["T_beacon", "nodes", "adapters", "stable_s", "delta_s"],
                         args.replicates, over=["stable_s", "delta_s"]),
        title="Figure 5 — time for all groups to become stable",
    ))
    _export_metrics(args, registry)
    return 0


def cmd_storm(args) -> int:
    from repro.farm.builder import FarmBuilder
    from repro.node.faults import FaultInjector
    from repro.node.osmodel import OSParams

    params = GSParams(beacon_duration=3.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                      hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                      takeover_stagger=0.5)
    b = FarmBuilder(seed=args.seed, params=params, os_params=OSParams.fast())
    for i in range(args.nodes):
        b.add_node(f"node-{i}", [1, 2], admin_eligible=(i < 2))
    farm = b.finish()
    _attach_sampler(args, farm)
    farm.start()
    stable = farm.run_until_stable(timeout=120.0)
    if stable is None:
        print("discovery did not stabilize", file=sys.stderr)
        return 1
    inj = FaultInjector(farm.sim, farm.hosts, mtbf=args.mtbf, mttr=args.mttr)
    inj.start()
    farm.sim.run(until=farm.sim.now + args.duration)
    inj.stop()
    for h in farm.hosts.values():
        if h.crashed:
            h.restart()
    farm.sim.run(until=farm.sim.now + 60.0)
    _export_metrics(args, farm.sim.metrics)
    print(f"churn: {inj.crashes} crashes / {inj.repairs} repairs in "
          f"{args.duration:.0f}s")
    print(f"notifications: {farm.bus.count('node_failed')} node_failed, "
          f"{farm.bus.count('node_recovered')} node_recovered")
    print(summarize_farm(farm))
    return 0


def cmd_move(args) -> int:
    from repro.farm.builder import FarmBuilder
    from repro.node.osmodel import OSParams

    params = GSParams(beacon_duration=3.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                      hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                      takeover_stagger=0.5)
    b = FarmBuilder(seed=args.seed, params=params, os_params=OSParams.fast())
    for i in range(args.domain_size):
        b.add_node(f"a-{i}", [1, 2], admin_eligible=(i == 0))
    for i in range(args.domain_size):
        b.add_node(f"b-{i}", [1, 3])
    farm = b.finish()
    _attach_sampler(args, farm)
    farm.start()
    farm.run_until_stable(timeout=120.0)
    mover = farm.hosts["a-1"].adapters[1]
    t0 = farm.sim.now
    print(f"t={t0:.2f}s: moving {mover.name} ({mover.ip}) from VLAN 2 to VLAN 3")
    farm.reconfig().move_adapter(mover.ip, 3)
    farm.sim.run(until=t0 + 45.0)
    for note in farm.bus.history:
        if note.time > t0:
            print(f"  {note}")
    proto = farm.daemons["a-1"].protocol_for(mover.ip)
    print(f"final view: {proto.view}")
    print(f"failure notifications: {farm.bus.count('adapter_failed')} "
          "(expected moves are suppressed)")
    _export_metrics(args, farm.sim.metrics)
    return 0


def cmd_detectors(args) -> int:
    registry = _sweep_registry(args)
    rows = run_sweep(
        _detector_point,
        {"scheme": ["ring (GulfStream)", "all-pairs (HACMP)",
                    "random ping [9]", "central poll"]},
        fixed={"members": args.members},
        **_sweep_options(args, "cli.detectors", metrics=registry),
    )
    print(format_table(
        rows,
        columns=_with_sd(["scheme", "frames_per_sec", "detect_s"],
                         args.replicates, over=["frames_per_sec", "detect_s"]),
        title=f"failure detectors, {args.members} members",
    ))
    _export_metrics(args, registry)
    return 0


def cmd_serve(args) -> int:
    from repro.farm import DomainSpec, FarmSpec, TrafficSource, build_farm, deploy_service
    from repro.node.osmodel import OSParams
    from repro.workload.generators import constant_rate

    params = GSParams(beacon_duration=2.0, amg_stable_wait=2.0, gsc_stable_wait=4.0,
                      hb_interval=0.5, probe_timeout=0.5, orphan_timeout=2.5,
                      takeover_stagger=0.5)
    spec = FarmSpec(domains=[DomainSpec("acme", 2, 3)], dispatchers=1,
                    management_nodes=1, spare_nodes=1)
    farm = build_farm(spec, seed=args.seed, params=params, os_params=OSParams.fast())
    front_ends = deploy_service(farm, request_timeout=2.0)
    _attach_sampler(args, farm)
    farm.start()
    farm.run_until_stable(timeout=120.0)
    TrafficSource(farm.hosts["dispatch-0"], front_ends, constant_rate("acme", args.rate),
                  start_at=farm.sim.now, timeout=2.0, max_retries=1)
    reg = farm.sim.metrics

    def count(name: str) -> int:
        return reg.counter(f"traffic.{name}", domain="acme").value

    farm.sim.run(until=farm.sim.now + 15.0)
    t0 = farm.sim.now
    failed_before = count("failed")
    if args.event == "crash":
        print(f"t={t0:.1f}s: crashing acme-be-1")
        farm.hosts["acme-be-1"].crash()
    elif args.event == "move":
        print(f"t={t0:.1f}s: moving acme-be-1 out of the domain")
        farm.reconfig().move_node(farm.hosts["acme-be-1"],
                                  {farm.domain_vlans["acme"]: 99})
    farm.sim.run(until=t0 + 30.0)
    completed, failed = count("completed"), count("failed")
    done = completed + failed
    p50 = reg.histogram("traffic.latency_s").percentile(50)
    print(f"issued={count('requests')} completed={completed} failed={failed} "
          f"retried={count('retried')}")
    print(f"success rate={completed / done if done else 1.0:.4f}  p50 latency="
          f"{p50 * 1000:.1f}ms")
    print(f"failures in the 30s event window: {failed - failed_before}")
    _export_metrics(args, farm.sim.metrics)
    return 0


def cmd_chaos(args) -> int:
    from repro.checks import (
        MIXES, build_report, render_report, run_campaign, write_report,
    )

    mixes = [m for m in args.mixes.split(",") if m]
    unknown = [m for m in mixes if m not in MIXES]
    if unknown:
        print(f"unknown mix(es) {', '.join(unknown)}; "
              f"choose from {', '.join(sorted(MIXES))}", file=sys.stderr)
        return 2
    rows = run_campaign(
        args.farm, mixes, args.seeds,
        jobs=args.jobs, base_seed=args.seed, duration=args.duration,
        cache=_result_cache(args),
    )
    report = build_report(rows, args.farm, mixes, args.seeds, args.seed)
    if args.report:
        path = write_report(report, args.report)
        print(f"report written to {path}", file=sys.stderr)
    print(render_report(report))
    return 0 if report["ok"] else 1


def cmd_workload(args) -> int:
    from repro.checks import MIXES, write_report
    from repro.workload.traffic import (
        build_traffic_report, render_traffic_report, run_traffic_campaign,
    )

    mix = None if args.mix in (None, "none") else args.mix
    if mix is not None and mix not in MIXES:
        print(f"unknown mix {args.mix!r}; "
              f"choose from none, {', '.join(sorted(MIXES))}", file=sys.stderr)
        return 2
    registry = _sweep_registry(args)
    rows = run_traffic_campaign(
        cases=args.cases,
        jobs=args.jobs,
        replicates=args.replicates,
        base_seed=args.seed,
        cache=_result_cache(args),
        metrics=registry,
        domains=args.domains,
        front_ends=args.front_ends,
        back_ends=args.back_ends,
        spares=args.spares,
        rate=args.rate,
        duration=args.duration,
        mix=mix,
        profile=args.profile,
    )
    report = build_traffic_report(rows, base_seed=args.seed, mix=mix)
    if args.report:
        path = write_report(report, args.report)
        print(f"report written to {path}", file=sys.stderr)
    print(render_traffic_report(report))
    _export_metrics(args, registry)
    return 0 if report["ok"] else 1


def cmd_metrics(args) -> int:
    from repro.metrics import diff_metrics, read_final

    if len(args.exports) > 2:
        print("metrics takes one export (print) or two (diff)", file=sys.stderr)
        return 2
    old = read_final(args.exports[0])
    if len(args.exports) == 1:
        rows = []
        for key in sorted(old):
            fields = old[key]
            for field in sorted(fields):
                if field == "type":
                    continue
                rows.append({"metric": key, "type": fields["type"],
                             "field": field, "value": fields[field]})
        print(format_table(
            rows, columns=["metric", "type", "field", "value"], floatfmt=".6g",
            title=f"final sample — {args.exports[0]}",
        ))
        return 0
    new = read_final(args.exports[1])
    diffs = diff_metrics(old, new, tolerance=args.tolerance)
    if not diffs:
        print(f"no metric field differs by more than {args.tolerance:.1%} "
              f"({len(set(old) | set(new))} metrics compared)")
        return 0
    rows = []
    for d in diffs:
        if d.old is None:
            change = "appeared"
        elif d.new is None:
            change = "disappeared"
        else:
            change = f"{d.rel_change:+.1%}" if d.rel_change != float("inf") else "from zero"
        rows.append({"metric": d.key, "field": d.field,
                     "old": "-" if d.old is None else d.old,
                     "new": "-" if d.new is None else d.new,
                     "change": change})
    print(format_table(
        rows, columns=["metric", "field", "old", "new", "change"], floatfmt=".6g",
        title=f"{len(diffs)} metric field(s) beyond tolerance {args.tolerance:.1%}",
    ))
    return 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
#: the options several subcommands share; each subcommand takes exactly the
#: ones its ``cmd_*`` reads (an option it would ignore is a usage error)
_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=0, help="master RNG seed"),
    "--jobs": dict(
        type=int, default=1,
        help="worker processes (1 = in-process; 0 = one per CPU); results "
             "are identical for any value"),
    "--replicates": dict(
        type=int, default=1,
        help="independently-seeded runs per sweep point — averaged with "
             "*_sd confidence columns for numeric sweeps; for 'workload' "
             "each replicate is a whole extra SLO row folded into the "
             "report"),
    "--cache": dict(
        action="store_true",
        help="replay unchanged sweep points from the on-disk result cache "
             "($GULFSTREAM_CACHE_DIR, default ~/.cache/gulfstream-sim)"),
    "--metrics-out": dict(
        metavar="PATH", default=None,
        help="export the run's metrics registry; format follows the suffix "
             "(.jsonl time-series, .csv flat, .prom Prometheus text)"),
}

#: the shared options of a sweep-shaped command
_SWEEP = ("--seed", "--jobs", "--replicates", "--cache", "--metrics-out")
#: the shared options of a command that runs one farm
_FARM = ("--seed", "--metrics-out")


def _add_subcommand(sub, name: str, options, **kwargs) -> argparse.ArgumentParser:
    """A subparser carrying the named :data:`_SHARED_OPTIONS`."""
    p = sub.add_parser(name, **kwargs)
    for option in options:
        p.add_argument(option, **_SHARED_OPTIONS[option])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gulfstream-sim",
        description="GulfStream (CLUSTER 2001) reproduction — scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subcommand(sub, "discover", _SWEEP, help="run one topology discovery")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--adapters", type=int, default=3, help="adapters per node")
    p.add_argument("--beacon", type=float, default=5.0, help="T_beacon seconds")
    p.add_argument("--timeout", type=float, default=300.0)
    p.set_defaults(fn=cmd_discover)

    p = _add_subcommand(sub, "fig5", _SWEEP, help="regenerate a Figure 5 sweep")
    p.add_argument("--nodes", type=_csv_ints, default=[2, 10, 25, 55])
    p.add_argument("--beacon-times", type=_csv_floats, default=[5.0, 10.0, 20.0])
    p.set_defaults(fn=cmd_fig5)

    p = _add_subcommand(sub, "storm", _FARM, help="random churn, then convergence report")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--mtbf", type=float, default=60.0)
    p.add_argument("--mttr", type=float, default=10.0)
    p.set_defaults(fn=cmd_storm)

    p = _add_subcommand(sub, "move", _FARM, help="narrate a §3.1 domain move")
    p.add_argument("--domain-size", type=int, default=3)
    p.set_defaults(fn=cmd_move)

    p = _add_subcommand(sub, "detectors", _SWEEP, help="failure-detector comparison")
    p.add_argument("--members", type=int, default=32)
    p.set_defaults(fn=cmd_detectors)

    p = _add_subcommand(sub, "serve", _FARM, help="request workload with an optional event")
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--event", choices=["none", "crash", "move"], default="crash")
    p.set_defaults(fn=cmd_serve)

    p = _add_subcommand(
        sub, "chaos", ("--seed", "--jobs", "--cache"),
        help="randomized fault campaign with online invariant checking",
    )
    p.add_argument("--farm", default="oceano55",
                   help="farm name: oceanoN or testbedN (e.g. oceano55)")
    p.add_argument("--mixes", default="mixed",
                   help="comma-separated fault mixes (crash, adapters, "
                        "partition, leader, mixed)")
    p.add_argument("--seeds", type=int, default=10,
                   help="cases per mix (seeded from --seed)")
    p.add_argument("--duration", type=float, default=40.0,
                   help="fault-injection window per case, simulated seconds")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the machine-readable violations report (JSON)")
    p.set_defaults(fn=cmd_chaos)

    p = _add_subcommand(
        sub, "workload", _SWEEP,
        help="streamed user-request workload driving live autoscaler moves",
    )
    p.add_argument("--cases", type=int, default=3,
                   help="independently-seeded workload cases (seeded from --seed)")
    p.add_argument("--domains", type=int, default=2)
    p.add_argument("--front-ends", type=int, default=1,
                   help="front ends per domain")
    p.add_argument("--back-ends", type=int, default=3,
                   help="back ends per domain")
    p.add_argument("--spares", type=int, default=2,
                   help="movable free-pool spares")
    p.add_argument("--rate", type=float, default=120.0,
                   help="peak aggregate arrival rate, requests/sec")
    p.add_argument("--duration", type=float, default=30.0,
                   help="request-stream window per case, simulated seconds")
    p.add_argument("--mix", default="none",
                   help="chaos mix to run under the traffic (none, crash, "
                        "adapters, partition, leader, mixed)")
    p.add_argument("--profile", choices=WORKLOAD_PROFILES, default="diurnal",
                   help="rate-profile shape (default diurnal)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the machine-readable SLO report (JSON)")
    p.set_defaults(fn=cmd_workload)

    p = _add_subcommand(sub, "metrics", (), help="print one metrics export, or diff two")
    p.add_argument("exports", nargs="+", metavar="EXPORT",
                   help="one export path to print, or two to diff (old new)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative change below this is not a diff (e.g. 0.05)")
    p.set_defaults(fn=cmd_metrics)
    return parser


def _check_option_order(parser: argparse.ArgumentParser, argv: List[str]) -> None:
    """A shared option before the command would read to argparse as a bad
    command (``invalid choice: '5'``): name the option and where it goes."""
    option = argv[0].split("=", 1)[0] if argv else ""
    if option not in _SHARED_OPTIONS:
        return
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    command = next((a for a in argv if a in commands), None)
    example = (
        f"gulfstream-sim {command} {' '.join(a for a in argv if a != command)}"
        if command is not None else f"gulfstream-sim COMMAND {option} ..."
    )
    parser.error(f"{option} goes after the command: {example}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    _check_option_order(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `gulfstream-sim metrics x.jsonl | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
