"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import copy
import dataclasses
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import forbid_incidence
from test_tables import oracle_json

import phaselock.cli
import phaselock.dynamics
import phaselock.errors
import phaselock.experiments
from phaselock import DivergenceError, OscillatorNetwork, parse_network, theta_dot, write_network
from phaselock.cli import main
from phaselock.experiments import (
    EXPERIMENT_IDS,
    ExperimentResult,
    five_network_network,
    run_experiment,
    three_chain_network,
)


def _child_env():
    """Environment in which a child interpreter imports the phaselock under
    test, whether or not it is installed or on PYTHONPATH."""
    src = str(Path(phaselock.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    write_network(OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0]), path)
    return path


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    write_network(OscillatorNetwork(2, [0.5, 0.0], [1.0]), path)
    return path


def test_simulate_writes_trajectory(chain_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--network",
            str(chain_file),
            "--t-end",
            "1.0",
            "--dt",
            "0.01",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,theta_1,theta_2,theta_3,thetadot_1,thetadot_2,thetadot_3"
    assert len(lines) == 102  # header + 101 stored steps
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and len(first) == 7


def test_simulate_theta0_flag(pair_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--network",
            str(pair_file),
            "--t-end",
            "0.5",
            "--dt",
            "0.01",
            "--theta0",
            "0.1,-0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(0.1)
    assert float(first[2]) == pytest.approx(-0.2)


@pytest.mark.parametrize("theta0", ["0.1", "0.1,0.2", "0.1,0.2,0.3,0.4"])
def test_simulate_theta0_needs_one_phase_per_oscillator(chain_file, tmp_path, capsys, theta0):
    out = tmp_path / "out"
    argv = ["simulate", "--network", str(chain_file), "--theta0", theta0, "--out", str(out)]
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err == "error: --theta0 needs 3 comma-separated values\n"
    assert not out.exists()


def test_simulate_deterministic_bytes(chain_file, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(
                [
                    "simulate",
                    "--network",
                    str(chain_file),
                    "--t-end",
                    "2.0",
                    "--dt",
                    "0.01",
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outputs.append((out / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_analyze_report_fields(chain_file, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--network", str(chain_file), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "semistable-candidate"
    assert report["equilibrium"][0] == pytest.approx(0.0, abs=1e-9)
    assert report["equilibrium"][1] == pytest.approx(-np.pi / 6, abs=1e-9)
    assert len(report["eigenvalues"]) == 6
    assert all(len(pair) == 2 for pair in report["eigenvalues"])
    assert report["bounds"]["per_edge_sufficient"] == [1.5, 3.0, 1.5]
    assert report["bounds"]["uniform_k0"] == 1.5
    assert report["certificates"] is None
    assert report["sync_frequency"] == 2.0


def test_bounds_output(pair_file, tmp_path):
    out = tmp_path / "out"
    assert main(["bounds", "--network", str(pair_file), "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["per_edge_sufficient"] == [0.5]
    assert payload["uniform_k0"] == 0.5


@pytest.mark.parametrize("delta", ["5", "nan", "0"])
def test_bounds_checks_delta_before_making_the_out_directory(pair_file, tmp_path, capsys, delta):
    out = tmp_path / "bd"
    assert main(["bounds", "--network", str(pair_file), "--delta", delta, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: delta must lie in (0, pi)\n"
    assert not out.exists()


def test_invariance_pass_and_fail_exit_codes(pair_file, tmp_path, capsys):
    out = tmp_path / "ok"
    code = main(
        [
            "invariance",
            "--network",
            str(pair_file),
            "--samples",
            "50",
            "--t-end",
            "20",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "invariance.json").read_text())
    assert payload["certificates"]["invariance"]["passed"] is True

    weak = tmp_path / "weak.json"
    write_network(OscillatorNetwork(3, [0.0, 4.0, 8.0], [3.0, 6.0, 3.0]), weak)
    out2 = tmp_path / "fail"
    code = main(
        [
            "invariance",
            "--network",
            str(weak),
            "--samples",
            "30",
            "--t-end",
            "20",
            "--seed",
            "1",
            "--out",
            str(out2),
        ]
    )
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


def test_portrait_three_oscillators(chain_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["portrait", "--network", str(chain_file), "--grid", "5", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "field.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,dx1,dx2"
    assert len(lines) == 26
    assert not (out / "gboundary.csv").exists()


def test_portrait_two_oscillators_emits_planar_files(pair_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["portrait", "--network", str(pair_file), "--grid", "7", "--out", str(out)]
    )
    assert code == 0
    gb = (out / "gboundary.csv").read_text().splitlines()
    assert gb[0] == "x1,upper,lower"
    assert len(gb) == 8
    x1, upper, lower = (float(v) for v in gb[1].split(","))
    assert upper == pytest.approx(1.0 * (1 - np.sin(x1)))
    assert lower == pytest.approx(-1.0 * (1 + np.sin(x1)))
    cones = (out / "cones.csv").read_text().splitlines()
    assert cones[0] == "a,lo_slope,hi_slope,nontangent"
    assert all(row.endswith(",1") for row in cones[1:])


def test_portrait_of_an_uncoupled_pair_fails_before_writing(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text('{"n": 2, "omega": [1.0, 0.0], "coupling": [0.0]}')
    out = tmp_path / "out"
    assert main(["portrait", "--network", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: portrait needs a positive coupling between the two oscillators, got 0\n"
    )
    assert not out.exists() or not any(out.iterdir())


_PAST_THE_RANGE = "grid range widths (and x3 = x2 - x1 at N = 3) must be finite"


@pytest.mark.parametrize(
    "n, extra, message",
    [
        (4, [], "vector_field_grid supports only 2- or 3-oscillator networks"),
        (3, ["--grid", "1"], "grid resolution must be at least 2 per axis"),
        (3, ["--x1-min", "nan"], "grid ranges must be finite"),
        (3, ["--x2-max", "inf"], "grid ranges must be finite"),
        (2, ["--x1-max", "nan"], "grid ranges must be finite"),
        (2, ["--x2-min=-inf"], "grid ranges must be finite"),
        (3, ["--x2-min=-1e308", "--x2-max", "1e308", "--grid", "3"], _PAST_THE_RANGE),
        (3, ["--x1-min=-1e308", "--x1-max", "1e308", "--x2-min=-1e308", "--x2-max", "1e308",
             "--grid", "3"], _PAST_THE_RANGE),
        (3, ["--x1-min=-1e308", "--x1-max", "0", "--x2-min=0", "--x2-max", "1e308"],
         _PAST_THE_RANGE),
        (2, ["--x2-min=1.7e308", "--x2-max=-1.7e308"], _PAST_THE_RANGE),
    ],
)
def test_portrait_rejected_by_the_grid_leaves_no_out_directory(
    n, extra, message, tmp_path, capsys
):
    path = tmp_path / "net.json"
    write_network(OscillatorNetwork(n, np.arange(n), np.ones(n * (n - 1) // 2)), path)
    out = tmp_path / "out"
    assert main(["portrait", "--network", str(path), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("fixture", ["pair_file", "chain_file"])
def test_portrait_leaves_the_incidence_unbuilt(fixture, request, tmp_path, monkeypatch):
    forbid_incidence(monkeypatch)
    path = request.getfixturevalue(fixture)
    assert main(["portrait", "--network", str(path), "--out", str(tmp_path)]) == 0


def test_experiment_three_chain(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["experiment", "three_chain", "--out", str(out)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "semistable-candidate"
    assert (out / "field.csv").exists()


def test_experiment_five_network(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "five_network", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sync_frequency"] == 3.0
    assert report["worst_deviation"] < 1e-6
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment_report_network_parses_back(tmp_path, experiment_id):
    out = tmp_path / "exp"
    assert main(["experiment", experiment_id, "--out", str(out)]) == 0
    network = tmp_path / "network.json"
    network.write_text(json.dumps(json.loads((out / "report.json").read_text())["network"]))
    expected = {"three_chain": three_chain_network, "five_network": five_network_network}
    assert parse_network(network) == expected[experiment_id]()


def test_failed_experiment_verification_exits_2(tmp_path, capsys, monkeypatch):
    failed = ExperimentResult("three_chain", False, {"x": 1.0}, ["first check", "second check"])
    monkeypatch.setattr(phaselock.cli, "run_experiment", lambda experiment_id, out_dir: failed)
    assert main(["experiment", "three_chain", "--out", str(tmp_path / "exp")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "experiment three_chain verification FAILED:\n  - first check\n  - second check\n"
    )
    assert (tmp_path / "exp" / "report.json").read_text() == '{\n  "x": 1.0\n}\n'


def test_three_chain_reports_a_fixed_point_off_its_target(tmp_path, monkeypatch):
    solve = phaselock.experiments.solve_equilibrium
    monkeypatch.setattr(
        phaselock.experiments, "solve_equilibrium", lambda net, **kw: solve(net, **kw) + 1e-6
    )
    result = run_experiment("three_chain", out_dir=tmp_path)
    x = result.report["fixed_point"]
    assert result.passed is False
    assert result.failures == [
        f"fixed point: expected (x1, x2) = (0, {-np.pi / 6:.15g}), got ({x[0]:.15g}, {x[1]:.15g})"
    ]


def test_three_chain_reports_a_wrong_classification(tmp_path, monkeypatch):
    classify = phaselock.experiments.classify_stability
    monkeypatch.setattr(
        phaselock.experiments,
        "classify_stability",
        lambda net, x: dataclasses.replace(classify(net, x), classification="unstable"),
    )
    result = run_experiment("three_chain", out_dir=tmp_path)
    assert result.passed is False
    assert result.failures == ["classification: expected semistable-candidate, got unstable"]


@pytest.mark.parametrize("other", [False, True], ids=["no-lock", "another-lock"])
def test_three_chain_sweep_skips_failed_solves_and_reports_another_in_box_lock(
    tmp_path, monkeypatch, other
):
    solve = phaselock.experiments.solve_equilibrium

    def sweep_solve(net, theta_guess=None):
        if theta_guess is None:  # the fixed point itself
            return solve(net)
        if theta_guess[0] < 0.0:
            raise phaselock.errors.NoEquilibriumError("no lock from this guess")
        return solve(net) + (0.1 if other else 0.0)

    monkeypatch.setattr(phaselock.experiments, "solve_equilibrium", sweep_solve)
    result = run_experiment("three_chain", out_dir=tmp_path)
    assert result.passed is not other
    assert result.failures == (["sweep found an additional in-box fixed point"] if other else [])


def test_five_network_reports_a_final_frequency_off_the_mean(tmp_path, monkeypatch):
    simulate = phaselock.experiments.simulate

    def off_by_a_millirad(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        dots = traj.theta_dots.copy()
        dots[-1, 0] += 1e-3
        return dataclasses.replace(traj, theta_dots=dots)

    monkeypatch.setattr(phaselock.experiments, "simulate", off_by_a_millirad)
    result = run_experiment("five_network", out_dir=tmp_path)
    worst = result.report["worst_deviation"]
    assert result.passed is False
    assert worst == pytest.approx(1e-3, abs=1e-6)
    assert result.failures == [
        f"frequencies: expected all within 1e-6 of 3 rad/s, worst deviation {worst:.3g}"
    ]


@pytest.mark.parametrize("experiment_id", ["nope", "", "THREE_CHAIN"])
def test_unknown_experiment_id_creates_no_directory(tmp_path, experiment_id):
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(experiment_id, out_dir=tmp_path / "exp")
    assert not (tmp_path / "exp").exists()


def _error_classes():
    return [
        cls for _, cls in inspect.getmembers(phaselock.errors, inspect.isclass)
        if cls.__module__ == "phaselock.errors"
    ]


@pytest.mark.parametrize("subcommand", ["simulate", "analyze", "bounds", "invariance", "portrait"])
@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_package_error_is_one_error_line(tmp_path, capsys, monkeypatch, subcommand, error):
    exc = error(3, 0.03) if error is DivergenceError else error("bad input")

    def parse_network(path):
        raise exc

    monkeypatch.setattr(phaselock.cli, "parse_network", parse_network)
    code = main([subcommand, "--network", "net.json", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


def test_missing_network_file_is_an_error(tmp_path, capsys):
    code = main(["analyze", "--network", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_network_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--network", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe{}",
        b'{"n":2,"omega":[' + b"9" * 5000 + b',0],"coupling":[1]}',
    ],
    ids=["deep-nesting", "not-utf8", "long-integer"],
)
def test_an_unreadable_network_file_is_an_error_naming_the_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["bounds", "--network", str(bad), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("dt", ["1e-18", "1e-20", "1e-310"])
def test_simulate_with_a_tiny_step_runs(chain_file, tmp_path, capsys, dt):
    out = tmp_path / "out"
    argv = ["simulate", "--network", str(chain_file), "--theta0", "0,0.1,0.2",
            "--dt", dt, "--t-end", repr(10 * float(dt)), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "trajectory.csv").read_text().splitlines()) == 12  # header + 11 steps


def test_module_entry_point(tmp_path, chain_file):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "phaselock.cli",
            "bounds",
            "--network",
            str(chain_file),
            "--out",
            str(tmp_path / "sp"),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sp" / "bounds.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds"],
        ["analyze", "--certify", "--samples", "5", "--t-end", "1"],
        ["invariance", "--samples", "5", "--t-end", "1"],
    ],
    ids=["bounds", "analyze", "invariance"],
)
def test_payloads_hand_the_report_arrays_over_uncopied(pair_file, tmp_path, monkeypatch, argv):
    # dataclasses.asdict deep-copies every array field of a report
    run = [*argv, "--network", str(pair_file), "--out"]
    assert main([*run, str(tmp_path / "copies")]) == 0

    def no_copy(*args, **kwargs):
        raise AssertionError("a payload deep-copied its report")

    monkeypatch.setattr(copy, "deepcopy", no_copy)
    assert main([*run, str(tmp_path / "views")]) == 0
    (name,) = os.listdir(tmp_path / "views")
    assert (tmp_path / "views" / name).read_bytes() == (tmp_path / "copies" / name).read_bytes()


def test_analyze_certify_fills_certificates(pair_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            "--network",
            str(pair_file),
            "--certify",
            "--samples",
            "30",
            "--t-end",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    cert = report["certificates"]["invariance"]
    assert cert["passed"] is True and cert["n_samples"] == 30


def test_analyze_complete_graph_at_n200(tmp_path):
    n = 200
    e = n * (n - 1) // 2
    path = tmp_path / "k200.json"
    write_network(OscillatorNetwork(n, np.linspace(-1.0, 1.0, n), np.full(e, 300.0)), path)
    assert main(["analyze", "--network", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"] == "semistable-candidate"
    assert report["n_zero_eigenvalues"] == 2 * e - (n - 1)


def test_bad_step_configuration_is_an_error(chain_file, tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--network",
            str(chain_file),
            "--t-end",
            "1.0",
            "--dt",
            "-0.5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("t_end,dt", [(1.0, float("nan")), (float("nan"), 0.01),
                                      (float("inf"), 0.01), (1.0, float("inf"))])
def test_simulate_rejects_non_finite_steps(chain_file, tmp_path, capsys, t_end, dt):
    argv = ["simulate", "--network", str(chain_file), "--t-end", str(t_end), "--dt", str(dt)]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("subcommand", ["simulate", "invariance"])
def test_a_step_count_beyond_the_float_range_is_an_error(chain_file, tmp_path, capsys, subcommand):
    argv = [subcommand, "--network", str(chain_file), "--t-end", "1e300", "--dt", "1e-300",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_end / dt must be finite\n"


def test_a_grid_too_long_to_store_is_one_error_line(chain_file, tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 2.13 PiB for an array with shape (100000000000001, 3)"

    def simulate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(phaselock.cli, "simulate", simulate)
    argv = ["simulate", "--network", str(chain_file), "--t-end", "1e12", "--dt", "0.01",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "trajectory.csv").exists()


def test_a_horizon_too_long_to_store_fails_before_the_first_step(
    chain_file, tmp_path, capsys, monkeypatch
):
    # unmocked: the batch takes its whole store before any step, so numpy
    # refuses it at once; a field that raises after a few calls ends a run
    # that integrates instead of refusing
    calls = []

    def field(theta, net):
        calls.append(None)
        if len(calls) > 20:
            raise AssertionError("the run integrates a horizon it cannot store")
        return theta_dot(theta, net)

    monkeypatch.setattr(phaselock.dynamics, "theta_dot", field)
    argv = ["simulate", "--network", str(chain_file), "--t-end", "1e12", "--dt", "0.01",
            "--theta0=0,0,0", "--out", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: Unable to allocate [^\n]+\n", captured.err)
    assert not calls
    assert not (tmp_path / "trajectory.csv").exists()


def test_analyze_reads_the_horizon_only_to_certify(pair_file, tmp_path, capsys):
    argv = ["analyze", "--network", str(pair_file), "--t-end", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "report.json").read_text())["certificates"] is None
    assert main([*argv, "--certify"]) == 1
    assert capsys.readouterr().err == "error: t_end must be finite and at least dt\n"


def test_invariance_checks_the_step_before_sampling(tmp_path, capsys):
    # the sampler rejects a negative margin, so a grid checked only after
    # sampling would report the margin instead of the step
    path = tmp_path / "n16.json"
    write_network(OscillatorNetwork(16, np.zeros(16), np.ones(120)), path)
    argv = ["invariance", "--network", str(path), "--dt", "nan", "--margin", "-1",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: dt must be positive and finite\n"
    assert not (tmp_path / "invariance.json").exists()


@pytest.mark.parametrize("margin", ["-0.5", "-2", "nan", "1.5707963267948966"])
def test_invariance_rejects_a_margin_outside_the_range(chain_file, tmp_path, capsys, margin):
    argv = ["invariance", "--network", str(chain_file), "--samples", "20", "--t-end", "1",
            "--margin", margin, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: margin must lie in [0, pi/2)\n"
    assert not (tmp_path / "invariance.json").exists()


@pytest.mark.parametrize("command", [["invariance"], ["analyze", "--certify"]],
                         ids=["invariance", "analyze-certify"])
def test_certificate_runs_at_n50(tmp_path, command):
    path = tmp_path / "k50.json"
    write_network(OscillatorNetwork(50, np.linspace(-0.01, 0.01, 50), np.ones(50 * 49 // 2)), path)
    argv = [*command, "--network", str(path), "--samples", "10", "--t-end", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    name = "invariance.json" if command == ["invariance"] else "report.json"
    cert = json.loads((tmp_path / name).read_text())["certificates"]["invariance"]
    assert cert["passed"] is True and cert["bounds_met"] is True and cert["n_samples"] == 10


@pytest.mark.parametrize("argv", [["invariance", "--samples", "0"],
                                  ["invariance", "--samples", "-3"],
                                  ["analyze", "--certify", "--samples", "0"]],
                         ids=["invariance-0", "invariance-minus-3", "analyze-certify-0"])
def test_sample_count_below_one_is_an_error(pair_file, tmp_path, capsys, argv):
    assert main([*argv, "--network", str(pair_file), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: n_samples must be at least 1\n"


@pytest.mark.parametrize("subcommand", ["bounds", "portrait"])
def test_seed_is_not_an_option_without_random_draws(pair_file, capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--network", str(pair_file), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_non_finite_step_is_an_error(chain_file, tmp_path, capsys):
    argv = ["simulate", "--network", str(chain_file), "--dt", "nan", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / "trajectory.csv").exists()


def _k200_file(tmp_path):
    n = 200
    path = tmp_path / "k200.json"
    write_network(OscillatorNetwork(n, np.linspace(-1.0, 1.0, n), np.full(n * (n - 1) // 2, 300.0)), path)
    return path


def test_analyze_at_n200_peaks_below_16_mb(tmp_path, traced_peak):
    path = _k200_file(tmp_path)
    argv = ["analyze", "--network", str(path), "--out", str(tmp_path)]
    assert main(argv) == 0  # first call pays the one-off imports and parser build
    code, peak = traced_peak(main, argv)
    assert code == 0
    assert peak < 16e6, f"analyze peak {peak / 1e6:.2f} MB"


def test_parser_survives_an_argparse_error(pair_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--network", str(pair_file), "--horizon", "3"])
    assert exc.value.code == 2
    assert "--horizon" in capsys.readouterr().err
    assert main(["bounds", "--network", str(pair_file), "--out", str(tmp_path / "same")]) == 0
    fresh = [sys.executable, "-m", "phaselock.cli", "bounds", "--network", str(pair_file)]
    subprocess.run([*fresh, "--out", str(tmp_path / "fresh")], check=True, env=_child_env())
    same = (tmp_path / "same" / "bounds.json").read_bytes()
    assert same == (tmp_path / "fresh" / "bounds.json").read_bytes()


def _fixpoint_networks():
    """Ten small networks with gains 0.3-1.5x their per-edge thresholds (some
    find no equilibrium, some fail the certificate, some lack an edge) and
    a complete graph at N = 40."""
    rng = np.random.default_rng(66)
    nets = []
    for n in (2, 2, 3, 3, 4, 5, 5, 6, 7, 8):
        omega = rng.uniform(-2.0, 2.0, n)
        i, j = np.triu_indices(n, 1)
        gains = 0.5 * n * np.abs(omega[i] - omega[j]) * rng.uniform(0.3, 1.5, i.size)
        if n in (3, 5):
            gains[rng.integers(i.size)] = 0.0
        nets.append(OscillatorNetwork(n, omega, gains))
    omega = rng.uniform(-1.0, 1.0, 40)
    i, j = np.triu_indices(40, 1)
    nets.append(OscillatorNetwork(40, omega, 0.6 * 40 * np.abs(omega[i] - omega[j])))
    return nets


def test_every_json_output_is_the_oracle_fixpoint(tmp_path):
    runs = [["experiment", "three_chain"], ["experiment", "five_network"]]
    for idx, net in enumerate(_fixpoint_networks()):
        path = tmp_path / f"net{idx}.json"
        write_network(net, path)
        net_runs = [["analyze"], ["bounds"]]
        if net.n_oscillators <= 8:
            short = ["--samples", "10", "--t-end", "2", "--seed", str(idx)]
            net_runs += [["analyze", "--certify", *short], ["invariance", *short]]
        runs += [[*argv, "--network", str(path)] for argv in net_runs]
    written = []
    for idx, argv in enumerate(runs):
        out = tmp_path / f"out{idx}"
        assert main([*argv, "--out", str(out)]) in (0, 2)
        written += sorted(out.glob("*.json"))
    assert len(written) == len(runs)
    for path in written:
        text = path.read_text()
        assert text == oracle_json(json.loads(text)), path


@pytest.mark.parametrize(
    "omega",
    [[1e308, -1e308], [1e308, -1e308, 0.0], [1.7e308, -1.7e308, 0.0]],
    ids=["n2", "n3", "n3-1.7e308"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "1"],
        ["analyze"],
        ["analyze", "--certify", "--samples", "5", "--t-end", "1"],
        ["bounds"],
        ["invariance", "--samples", "5", "--t-end", "1"],
        ["portrait", "--grid", "3"],
    ],
    ids=["simulate", "analyze", "analyze-certify", "bounds", "invariance", "portrait"],
)
def test_frequencies_at_the_float_limit_print_no_warning(tmp_path, capsys, omega, argv):
    # pytest turns any warning into an error, so each command must end in
    # its own result or error line
    n = len(omega)
    path = tmp_path / "huge.json"
    write_network(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)), path)
    code = main([*argv, "--network", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if argv[0] == "simulate":
        # the phase difference 2 |omega| t passes the float range in step 90 (53 at 1.7e308)
        step = 53 if omega[0] == 1.7e308 else 90
        diverged = f"error: non-finite state at step {step} (t = {step / 100:g} s)\n"
        assert (code, err) == (1, diverged)
    elif argv[0] == "invariance" or "--certify" in argv:
        # every sample leaves the box at step 1, which ends the certificate
        failed = "invariance certificate FAILED: 0/5 trajectories stayed in the set\n"
        assert (code, err) == (2, failed if argv[0] == "invariance" else "")
    elif argv[0] == "portrait" and n == 2:
        assert (code, err) == (1, "error: portrait needs a finite frequency difference "
                               f"omega_1 - omega_2, got omega = ({omega[0]:g}, {omega[1]:g})\n")
    else:
        assert (code, err) == (0, "")
    if argv == ["analyze"]:
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["equilibrium"] is None
        assert report["equilibrium_error"] == "Newton residual is not finite (inf)"


def test_invariance_steps_a_common_mode_near_the_float_limit(tmp_path, capsys):
    # each stage is about 4e307 and the step 4e305; their unscaled RK4 sum overflows
    path = tmp_path / "fast.json"
    write_network(OscillatorNetwork(2, [4e307, 4e307], [1.0]), path)
    argv = ["invariance", "--network", str(path), "--t-end", "0.02", "--samples", "2"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "invariance.json").read_text())
    assert report["certificates"]["invariance"]["n_stayed"] == 2


def test_analyze_takes_the_mean_frequency_within_the_float_range(tmp_path, capsys):
    # the plain sum of these frequencies overflows; their mean does not
    omega = [-1.7e308, -1.7e308, -1e300, -1e-300]
    path = tmp_path / "huge.json"
    write_network(OscillatorNetwork(4, omega, [2.5, 2.5, 1.7e308, 1e-300, 1e300, 1e300]), path)
    assert main(["analyze", "--network", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sync_frequency"] == pytest.approx(-8.500000025e307, rel=1e-15)


def test_portrait_names_a_frequency_difference_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "pair.json"
    write_network(OscillatorNetwork(2, [1.7e308, -1.7e308], [1e150]), path)
    out = tmp_path / "out"
    assert main(["portrait", "--network", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: portrait needs a finite frequency difference omega_1 - omega_2, "
        "got omega = (1.7e+308, -1.7e+308)\n"
    )
    assert not out.exists()


def test_pair_portrait_at_the_largest_gain_writes_infinite_cells_quietly(tmp_path, capsys):
    # -K cos x1 * x2 passes the float range on most cells; pytest turns the
    # overflow warning into an error, and +-inf is the value past the range
    path = tmp_path / "pair.json"
    write_network(OscillatorNetwork(2, [0.5, 0.0], [1.7e308]), path)
    argv = ["portrait", "--network", str(path), "--grid", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    field = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
    assert np.isinf(field[:, 3]).sum() == 12
    assert not np.isnan(field).any()


@pytest.mark.parametrize(
    "omega, gains, n_inf",
    [
        ((-1e150, 3.0, 1.7e308), (1.7e308, 0.0, 1e-300), 5),
        ((1.7e308, -1.7e308, 0.0), (1.7e308,) * 3, 30),
    ],
    ids=["one-edge-past", "every-edge-past"],
)
def test_triple_portrait_past_the_float_range_writes_infinite_cells_quietly(
    tmp_path, capsys, omega, gains, n_inf
):
    # B^T omega - B^T B K sin X passes the float range on some cells; pytest
    # turns the overflow or inf - inf warning into an error
    net = OscillatorNetwork(3, omega, gains)
    path = tmp_path / "triple.json"
    write_network(net, path)
    argv = ["portrait", "--network", str(path), "--grid", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    field = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
    assert np.isinf(field).sum() == n_inf
    # each written cell lies within 1e-14 of the sum of its terms' magnitudes
    # from the exact field at the grid point (x1, x2), x3 = x2 - x1: inf only
    # where that is past the float range, with its sign; edges (1,2), (1,3), (2,3)
    top = Fraction(sys.float_info.max)
    w, k = [Fraction(v) for v in omega], [Fraction(v) for v in net.coupling_diag]
    grid = np.linspace(-np.pi, np.pi, 5)  # the written x1, x2 carry 15 digits only
    for (a, b), cells in zip(itertools.product(grid, grid), field[:, 2:]):
        y = [kf * Fraction(v) for kf, v in zip(k, np.sin([a, b, b - a]))]
        terms = [[w[0], -w[1], -2 * y[0], -y[1], y[2]], [w[0], -w[2], -y[0], -2 * y[1], -y[2]]]
        for cell, row in zip(cells, terms):
            exact, slack = sum(row), sum(map(abs, row)) / 10**14
            if math.isinf(cell):
                assert (cell > 0) == (exact > 0) and abs(exact) + slack >= top
            else:
                assert abs(Fraction(cell) - exact) <= slack


def test_analyze_names_a_coupling_that_rounds_to_zero_without_nan(tmp_path, capsys):
    # gain / N = 5e-324 / 2 rounds to 0 while the positive-gain graph stays
    # connected, so every restricted eigenvalue is 0 and their ratio 0 / 0
    path = tmp_path / "faint.json"
    write_network(OscillatorNetwork(2, [-2.5, 3.0], [5e-324]), path)
    assert main(["analyze", "--network", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["equilibrium_error"] == (
        "Jacobian rank-deficient at iterate; weak coupling: every eigenvalue is 0"
    )


FLOAT_RANGE_VALUES = [0.0, 1.0, -2.5, 3.0] + [
    sign * v for v in (5e-324, 1e-300, 1e150, 1e300, 1.7e308) for sign in (1.0, -1.0)
]
FLOAT_RANGE_COMMANDS = [
    ["bounds"],
    ["analyze"],
    ["portrait"],
    ["simulate", "--t-end", "0.05"],
    ["invariance", "--samples", "3", "--t-end", "0.05"],
]


@st.composite
def float_range_networks(draw):
    """N = 2..6, each frequency and |gain| from ``FLOAT_RANGE_VALUES``."""
    n = draw(st.integers(2, 6))
    values = st.sampled_from(FLOAT_RANGE_VALUES)
    omega = draw(st.lists(values, min_size=n, max_size=n))
    gains = draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return OscillatorNetwork(n, omega, np.abs(gains))


def _float_but_nan(constant: str) -> float:
    """``json.loads``'s reading of Infinity and -Infinity; NaN fails."""
    assert constant != "NaN", "output holds NaN"
    return float(constant)


def _run_quietly(argv, out: Path):
    """Exit code, stderr and the bytes of each output file of ``main(argv)``,
    with every warning recorded rather than raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, err.getvalue(), files


def _float_range_options(data, n: int) -> list[list[str]]:
    """The commands of options that carry values, each value drawn from
    ``FLOAT_RANGE_VALUES``: an N-entry guess, the four portrait range ends
    and the attracting-set angle."""
    value = st.sampled_from(FLOAT_RANGE_VALUES)
    ends = ("--x1-min", "--x1-max", "--x2-min", "--x2-max")
    return [
        ["analyze", "--guess=" + ",".join(repr(data.draw(value)) for _ in range(n))],
        ["portrait", *(f"{end}={data.draw(value)!r}" for end in ends)],
        ["bounds", f"--delta={data.draw(value)!r}"],
    ]


@settings(max_examples=120, deadline=None)
@given(float_range_networks(), st.data())
def test_every_command_across_the_float_range_ends_cleanly(net, data):
    # exit 0, 1 or 2 with no warning; an error is one line and leaves no
    # --out directory; no output holds NaN; a rerun writes the same bytes
    commands = FLOAT_RANGE_COMMANDS + _float_range_options(data, net.n_oscillators)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        write_network(net, path)
        for idx, argv in enumerate(commands):
            argv = [*argv, "--network", str(path)]
            first, again = (_run_quietly(argv, Path(tmp) / f"{idx}-{r}") for r in "ab")
            code, err, files = first
            assert code in (0, 1, 2), (argv, err)
            assert again == first, argv
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert files is None, argv
                continue
            for name, data in files.items():
                text = data.decode()
                if name.endswith(".json"):
                    json.loads(text, parse_constant=_float_but_nan)
                else:
                    cells = [float(v) for line in text.splitlines()[1:] for v in line.split(",")]
                    assert not np.isnan(cells).any(), (argv, name)


def test_bounds_next_to_the_float_limit_are_finite_where_they_are(tmp_path, capsys):
    # N * |omega_3 - omega_1| = 3e308 overflows, yet the onset bound
    # (3e308 - 2) / 2 is finite; the attracting-set sum 2e308 is not
    path = tmp_path / "big.json"
    write_network(OscillatorNetwork(3, [0.0, 1.0, 1e308], np.ones(3)), path)
    assert main(["bounds", "--network", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    bounds = json.loads((tmp_path / "bounds.json").read_text())
    assert bounds["onset_lower"] == pytest.approx([0.5, 1.5e308, 1.5e308], rel=1e-15)
    assert bounds["uniform_k0"] == 0.75e308
    assert bounds["attracting_margin"] == -np.inf
    assert bounds["attracting_satisfied"] is False


@pytest.mark.parametrize(
    "net",
    [
        OscillatorNetwork(3, [0.0, 1.0, 2.0], [1.7e308, 1.0, 1.0]),
        # gains on edges (1,2), (1,3) and (3,4)
        OscillatorNetwork(4, np.arange(4.0), [1e308, 1e308, 0.0, 0.0, 0.0, 1.0]),
    ],
    ids=["gain-1.7e308", "gains-1e308"],
)
def test_bounds_next_to_the_largest_gains_hold_no_nan(tmp_path, capsys, net):
    # a node strength past the float range made an onset bound inf - inf
    path = tmp_path / "big.json"
    write_network(net, path)
    assert main(["bounds", "--network", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert "NaN" not in (tmp_path / "bounds.json").read_text()


@pytest.mark.parametrize(
    "omega, gain",
    [(0.1 * np.arange(6), 1e200), ([0.0, 0.5, 1.0], 1e160)],
    ids=["n6-1e200", "n3-1e160"],
)
def test_analyze_at_huge_gains_finds_the_semistable_lock(tmp_path, capsys, omega, gain):
    # pytest turns any warning into an error, so the run must stay quiet
    n = len(omega)
    path = tmp_path / "huge.json"
    write_network(OscillatorNetwork(n, omega, np.full(n * (n - 1) // 2, gain)), path)
    assert main(["analyze", "--network", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"] == "semistable-candidate"
    assert report["n_zero_eigenvalues"] == (n - 1) ** 2
