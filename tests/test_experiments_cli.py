"""The ``python -m repro.experiments`` command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import build_parser, main, make_config


def test_list_figures(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "table4" in out


def test_rejects_unknown_figure_and_empty_invocation(capsys):
    assert main(["--figure", "fig99"]) == 2
    assert "unknown figures" in capsys.readouterr().err
    assert main([]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_make_config_profiles_and_overrides():
    parser = build_parser()
    smoke = make_config(parser.parse_args(
        ["--profile", "smoke", "--seed", "3", "--benchmarks", "RE,ITP",
         "--max-instances", "2", "--duration", "2.5"]))
    assert smoke.seed == 3
    assert smoke.benchmarks == ("RE", "ITP")
    assert smoke.max_instances == 2
    assert smoke.duration_s == 2.5
    paper = make_config(parser.parse_args(["--profile", "paper"]))
    assert paper.duration_s > smoke.duration_s


def test_serve_binds_to_loopback_by_default():
    parser = build_parser()
    assert parser.parse_args(["serve", "--queue", "q"]).host == "127.0.0.1"
    assert parser.parse_args(["serve", "--queue", "q", "--host",
                              "0.0.0.0"]).host == "0.0.0.0"


def test_queue_options_name_only_the_socket_transport(capsys):
    """Workers need --addr and heartbeat by default; no run path takes a
    queue directory or the retired backend."""
    parser = build_parser()
    worker = parser.parse_args(["worker", "--addr", "127.0.0.1:7781"])
    assert worker.heartbeat == 2.0
    for argv in (["worker", "--queue", "q"],
                 ["--figure", "fig15", "--queue", "q"],
                 ["scenario", "RE", "--backend", "distributed"]):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
    capsys.readouterr()


def test_scenario_subcommand_runs_a_mix_shorthand(capsys):
    assert main(["scenario", "RE+ITP+D2", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "scenario RE+ITP+D2" in out
    assert "client_fps" in out
    assert "provenance: schema v" in out


def test_scenario_subcommand_rejects_bad_specs(capsys):
    assert main(["scenario", "no-such-file.json"]) == 2
    assert "cannot interpret scenario spec" in capsys.readouterr().err
    assert main(["scenario", '{"placements": ["NOPE"]}']) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_scenario_subcommand_is_backend_invariant(capsys, tmp_path):
    """Serial, parallel, socket and cache-replay runs print
    bit-identical stdout."""
    spec = tmp_path / "mixes.json"
    spec.write_text(
        '[{"placements": ["RE", "ITP", "D2"], "seed": {"offset": 900}},\n'
        ' {"placements": ["STK", "RE", "ITP", "D2"], "seed": {"offset": 901},\n'
        '  "variant": "optimized"}]')
    base = ["scenario", str(spec), "--profile", "smoke"]

    assert main(base) == 0
    serial = capsys.readouterr().out
    assert serial.count("scenario ") == 2

    assert main(base + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out

    assert main(base + ["--backend", "socket", "--workers", "2"]) == 0
    socketed = capsys.readouterr().out

    cache_dir = str(tmp_path / "cache")
    assert main(base + ["--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert main(base + ["--cache-dir", cache_dir]) == 0
    replayed = capsys.readouterr().out

    assert serial == parallel == socketed == warm == replayed


def test_runs_a_figure_and_reports_stats(capsys, tmp_path):
    args = ["--figure", "fig15", "--profile", "smoke", "--benchmarks", "RE",
            "--max-instances", "1", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "l3_miss_rate" in first
    assert "1 jobs submitted, 1 executed" in first

    # Re-running replays from cache, printing the identical table.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "1 cache hits" in second
    assert first.splitlines()[:-1] == second.splitlines()[:-1]
