"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_dynamics import forbid_incidence
from test_tables import oracle_json

import phaselock.cli
from phaselock import OscillatorNetwork, write_network
from phaselock.cli import main


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


@pytest.mark.parametrize(
    "n, extra, message",
    [
        (4, [], "vector_field_grid supports only 2- or 3-oscillator networks"),
        (3, ["--grid", "1"], "grid resolution must be at least 2 per axis"),
        (3, ["--x1-min", "nan"], "grid ranges must be finite"),
        (3, ["--x2-max", "inf"], "grid ranges must be finite"),
        (2, ["--x1-max", "nan"], "grid ranges must be finite"),
        (2, ["--x2-min=-inf"], "grid ranges must be finite"),
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


def test_analyze_at_n200_peaks_below_16_mb(tmp_path):
    path = _k200_file(tmp_path)
    argv = ["analyze", "--network", str(path), "--out", str(tmp_path)]
    assert main(argv) == 0  # first call pays the one-off imports and parser build
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


_DIVERGED = "error: non-finite state at step 1 (t = 0.01 s)\n"


@pytest.mark.parametrize("omega", [[1e308, -1e308], [1e308, -1e308, 0.0]], ids=["n2", "n3"])
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
    if argv[0] in ("simulate", "invariance") or "--certify" in argv:
        assert (code, err) == (1, _DIVERGED)
    elif argv[0] == "portrait" and n == 2:
        assert (code, err) == (1, "error: delta_omega must be finite\n")
    else:
        assert (code, err) == (0, "")
    if argv == ["analyze"]:
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["equilibrium"] is None
        assert report["equilibrium_error"] == "Newton residual is not finite (inf)"


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
