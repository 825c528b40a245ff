"""The gulfstream-sim command-line interface."""

import os
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fake_stability(seen):
    """A stand-in for ``measure_stability`` that records each seed."""

    def fake(nodes, beacon_duration, seed, **kwargs):
        seen.append(seed)
        return SimpleNamespace(n_adapters=3 * nodes, stable_time=float(seed % 97),
                               delta=1.0)

    return fake


def test_discover(capsys):
    code, out = run(capsys, "discover", "--nodes", "4", "--beacon", "1.5",
                    "--seed", "1")
    assert code == 0
    assert "stable in" in out
    assert "GulfStream Central" in out
    assert "Adapter Membership Groups" in out


def test_discover_adapters_flag(capsys):
    code, out = run(capsys, "discover", "--nodes", "3", "--adapters", "2",
                    "--beacon", "1.5")
    assert code == 0
    assert "adapters=6" in out


def test_fig5(capsys):
    code, out = run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2")
    assert code == 0
    assert "Figure 5" in out
    assert out.count("2.00") >= 1  # the beacon column


def test_storm(capsys):
    code, out = run(capsys, "storm", "--nodes", "5", "--duration", "40",
                    "--mtbf", "30", "--mttr", "5", "--seed", "2")
    assert code == 0
    assert "churn:" in out and "crashes" in out
    assert "node_failed" in out


def test_move(capsys):
    code, out = run(capsys, "move", "--domain-size", "3", "--seed", "3")
    assert code == 0
    assert "moving" in out
    assert "move_completed" in out
    assert "failure notifications: 0" in out


def test_detectors(capsys):
    code, out = run(capsys, "detectors", "--members", "10")
    assert code == 0
    assert "ring (GulfStream)" in out
    assert "all-pairs (HACMP)" in out


def test_serve_crash(capsys):
    code, out = run(capsys, "serve", "--rate", "40", "--event", "crash",
                    "--seed", "4")
    assert code == 0
    assert "success rate=" in out


def test_serve_none_event(capsys):
    code, out = run(capsys, "serve", "--rate", "40", "--event", "none",
                    "--seed", "5")
    assert code == 0
    assert "failed=0" in out


def test_fig5_replicates_grow_sd_columns(monkeypatch, capsys):
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability([]))
    code, out = run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2",
                    "--replicates", "3")
    assert code == 0
    header = out.splitlines()[1]
    assert "stable_s_sd" in header and "delta_s_sd" in header
    assert "replicates" in header
    assert "3" in out  # the replicate count column


def test_fig5_grid_points_get_distinct_seeds(monkeypatch, capsys):
    # the pre-fabric implementation derived seeds as `args.seed + nodes`,
    # which replayed the same seed for every T_beacon row — the fabric
    # hashes the full task identity instead, so all points must differ
    seen = []
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability(seen))
    code, _ = run(capsys, "fig5", "--nodes", "2,4,8", "--beacon-times", "2,5",
                  "--seed", "7")
    assert code == 0
    assert len(seen) == 6
    assert len(set(seen)) == 6


def test_fig5_base_seed_changes_every_task_seed(monkeypatch, capsys):
    first, second = [], []
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability(first))
    run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2", "--seed", "0")
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability(second))
    run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2", "--seed", "1")
    assert len(first) == len(second) == 2
    assert set(first).isdisjoint(second)


def test_discover_replicates_prints_aggregated_table(monkeypatch, capsys):
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability([]))
    code, out = run(capsys, "discover", "--nodes", "3", "--beacon", "1.5",
                    "--replicates", "2")
    assert code == 0
    assert "independently-seeded" in out
    assert "stable_s_sd" in out


def test_fig5_cache_flag_reuses_results(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("GULFSTREAM_CACHE_DIR", str(tmp_path))
    seen = []
    monkeypatch.setattr("repro.cli.measure_stability", fake_stability(seen))
    code, cold = run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2",
                     "--cache")
    assert code == 0
    assert len(seen) == 2
    assert any(tmp_path.rglob("*.json"))  # results landed on disk
    code, warm = run(capsys, "fig5", "--nodes", "2,4", "--beacon-times", "2",
                     "--cache")
    assert code == 0
    assert len(seen) == 2  # warm run never re-ran the simulation
    assert warm == cold


@pytest.mark.slow
def test_fig5_jobs_matches_serial_through_real_cli(capsys):
    argv = ["fig5", "--nodes", "2", "--beacon-times", "2", "--replicates", "2"]
    code, serial = run(capsys, *argv)
    assert code == 0
    code, parallel = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert parallel == serial


def test_workload_smoke(capsys):
    code, out = run(capsys, "workload", "--cases", "1", "--duration", "5",
                    "--rate", "40")
    assert code == 0
    assert "workload campaign: cases=1" in out
    assert "moves/hour sustained" in out
    assert "no invariant violations" in out


def test_workload_replicates_fold_into_the_report(capsys):
    code, out = run(capsys, "workload", "--cases", "1", "--replicates", "2",
                    "--duration", "5", "--rate", "40")
    assert code == 0
    assert "replicates=2" in out


def test_workload_unknown_mix_exits_2(capsys):
    code, _ = run(capsys, "workload", "--mix", "nosuch")
    assert code == 2


#: the smallest workload run that still issues requests
TINY_WORKLOAD = ("workload", "--cases", "1", "--duration", "5", "--rate", "40")


def test_workload_profile_flag_reaches_the_case(capsys):
    """``--profile`` is handed to the case as an argument: the flat report
    differs from the default one, and ``--profile diurnal`` is the default."""
    code, default = run(capsys, *TINY_WORKLOAD)
    assert code == 0
    code, flat = run(capsys, *TINY_WORKLOAD, "--profile", "flat")
    assert code == 0
    assert flat != default
    code, diurnal = run(capsys, *TINY_WORKLOAD, "--profile", "diurnal")
    assert code == 0
    assert diurnal == default


def test_workload_cache_never_aliases_across_profiles(capsys, monkeypatch, tmp_path):
    """Through the real CLI: rows cached under one profile are not replayed
    under another, and are replayed under the same one."""
    from repro.metrics import read_final

    monkeypatch.setenv("GULFSTREAM_CACHE_DIR", str(tmp_path / "cache"))

    def hits(profile):
        out = tmp_path / f"{profile}.jsonl"
        code, _ = run(capsys, *TINY_WORKLOAD, "--cache", "--profile", profile,
                      "--metrics-out", str(out))
        assert code == 0
        return read_final(out)["runner.sweep.cache_hits"]["value"]

    assert hits("flat") == 0
    assert hits("diurnal") == 0
    assert hits("flat") == 1


def test_main_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    code, _ = run(capsys, *TINY_WORKLOAD, "--profile", "flat")
    assert code == 0
    assert dict(os.environ) == before


def test_sim_backend_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["discover", "--sim-backend", "heap"])
    assert exc.value.code == 2
    assert "--sim-backend" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discover", "workload"])
def test_shards_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--shards", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--seed", "5", "move"],  # a top-level option the subcommand would reset
    ["chaos", "--replicates", "2"],
    ["storm", "--jobs", "2"],
    ["serve", "--cache"],
    ["chaos", "--metrics-out", "x.jsonl"],
    ["fig5", "--shards", "2"],
])
def test_an_option_the_command_would_ignore_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: gulfstream-sim" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fix", [
    (["--seed", "5", "move"], "gulfstream-sim move --seed 5"),
    (["--seed=5", "move", "--domain-size", "4"],
     "gulfstream-sim move --seed=5 --domain-size 4"),
    (["--jobs", "2"], "gulfstream-sim COMMAND --jobs"),
])
def test_a_shared_option_before_the_command_is_named(argv, fix, capsys):
    """Not argparse's ``invalid choice: '5'``: the option, and where it goes."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: gulfstream-sim" in err and "invalid choice" not in err
    assert f"{argv[0].split('=')[0]} goes after the command: {fix}" in err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_parser_prog_name():
    assert build_parser().prog == "gulfstream-sim"
