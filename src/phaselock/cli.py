"""Command-line front end.

Subcommands: simulate, analyze, bounds, invariance, portrait, experiment.
Only the three that draw random numbers take ``--seed`` (default 0):
simulate for initial phases when ``--theta0`` is absent, analyze for the
``--certify`` starts, invariance for the certificate starts. Each option
is checked by the library call that uses it.

CSV and JSON outputs carry 15 significant digits and are byte-identical
across runs with the same configuration and seed. One payload builder per
result type hands ``tables.write_json`` the result arrays as they are
(gain thresholds, equilibrium, eigenvalues as (2e, 2) real/imaginary
rows), and the writer formats them in bulk. The argument parser is built
once per process. Exit codes: 0 on success or certificate pass, 2 on a
failed certificate or experiment verification, 1 on errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import analysis, planar
from .dynamics import simulate, vector_field_grid
from .errors import (
    DivergenceError,
    NetworkFileError,
    NoEquilibriumError,
    OutOfDomainError,
    SingularJacobianError,
)
from .experiments import EXPERIMENT_IDS, run_experiment
from .netfile import parse_network
from .tables import write_csv, write_json, write_trajectory

__all__ = ["main"]

_USER_ERRORS = (
    NetworkFileError,
    NoEquilibriumError,
    SingularJacobianError,
    DivergenceError,
    OutOfDomainError,
    ValueError,
    OSError,
)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _phases(text: str) -> np.ndarray:
    """Comma-separated phases; a malformed list raises ValueError."""
    return np.array([float(v) for v in text.split(",")])


def _cmd_simulate(args) -> int:
    net = parse_network(args.network)
    if args.theta0 is not None:
        theta0 = _phases(args.theta0)
        if theta0.size != net.n_oscillators:
            raise ValueError(
                f"--theta0 needs {net.n_oscillators} comma-separated values"
            )
    else:
        rng = np.random.default_rng(args.seed)
        theta0 = rng.uniform(-np.pi, np.pi, size=net.n_oscillators)
    traj = simulate(net, theta0, args.t_end, args.dt)
    write_trajectory(_out_dir(args) / "trajectory.csv", traj)
    return 0


def _bounds_payload(net, delta: float) -> dict:
    return dataclasses.asdict(analysis.coupling_bounds(net, delta=delta))


def _analysis_payload(net, delta: float, guess) -> dict:
    payload = {
        "bounds": _bounds_payload(net, delta),
        "sync_frequency": analysis.sync_frequency(net),
        "certificates": None,
    }
    try:
        x_star = analysis.solve_equilibrium(net, theta_guess=guess)
        report = analysis.classify_stability(net, x_star)
        payload["equilibrium"] = x_star
        eigs = report.eigenvalues
        payload["eigenvalues"] = np.column_stack([eigs.real, eigs.imag])
        payload["classification"] = report.classification
        payload["n_zero_eigenvalues"] = report.n_zero
    except (NoEquilibriumError, SingularJacobianError) as exc:
        payload["equilibrium"] = None
        payload["eigenvalues"] = None
        payload["classification"] = None
        payload["equilibrium_error"] = str(exc)
    return payload


# InvarianceReport fields written by `invariance`, and the subset that
# `analyze --certify` writes
_INVARIANCE_KEYS = (
    "passed", "bounds_met", "n_samples", "n_stayed", "fraction",
    "horizon", "dt", "margin", "seed",
)
_ANALYZE_CERT_KEYS = ("passed", "bounds_met", "n_samples", "n_stayed", "fraction", "seed")


def _invariance_payload(report, keys) -> dict:
    return {"invariance": {key: getattr(report, key) for key in keys}}


def _cmd_analyze(args) -> int:
    net = parse_network(args.network)
    guess = None if args.guess is None else _phases(args.guess)
    payload = _analysis_payload(net, args.delta, guess)
    certificate = None
    if args.certify:
        certificate = analysis.invariance_certificate(
            net, n_samples=args.samples, horizon=args.t_end, seed=args.seed
        )
        payload["certificates"] = _invariance_payload(certificate, _ANALYZE_CERT_KEYS)
    write_json(_out_dir(args) / "report.json", payload)
    if certificate is not None and not certificate.passed:
        return 2
    return 0


def _cmd_bounds(args) -> int:
    net = parse_network(args.network)
    write_json(_out_dir(args) / "bounds.json", _bounds_payload(net, args.delta))
    return 0


def _cmd_invariance(args) -> int:
    net = parse_network(args.network)
    report = analysis.invariance_certificate(
        net,
        n_samples=args.samples,
        horizon=args.t_end,
        dt=args.dt,
        margin=args.margin,
        seed=args.seed,
    )
    payload = {"certificates": _invariance_payload(report, _INVARIANCE_KEYS)}
    write_json(_out_dir(args) / "invariance.json", payload)
    if not report.passed:
        print(
            f"invariance certificate FAILED: {report.n_stayed}/{report.n_samples} "
            "trajectories stayed in the set",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_portrait(args) -> int:
    net = parse_network(args.network)
    params = None
    if net.n_oscillators == 2:  # checked before any file is written
        gain = float(net.coupling_gains[0])
        if not gain > 0:
            raise ValueError(
                "portrait needs a positive coupling between the two "
                f"oscillators, got {gain:g}"
            )
        omega = net.natural_frequencies.tolist()  # Python floats overflow to inf quietly
        params = planar.PlanarParams(k=gain, delta_omega=omega[0] - omega[1])
    grid = vector_field_grid(  # rejects the network or grid before --out is made
        net,
        x1_range=(args.x1_min, args.x1_max),
        x2_range=(args.x2_min, args.x2_max),
        resolution=args.grid,
    )
    out = _out_dir(args)
    write_csv(out / "field.csv", "x1,x2,dx1,dx2", grid)

    if params is not None:
        # interior grid: the trapping region excludes its x1 endpoints
        x1 = np.linspace(-np.pi / 2, np.pi / 2, args.grid + 2)[1:-1]
        rows = [
            (
                v,
                planar.region_g_boundary(v, params, "upper"),
                planar.region_g_boundary(v, params, "lower"),
            )
            for v in x1
        ]
        write_csv(out / "gboundary.csv", "x1,upper,lower", rows)

        eps = planar.DEFAULT_CONE_EPS
        sweep = np.linspace(-np.pi / 2 + 2 * eps, np.pi / 2 - 2 * eps, args.grid)
        cone_rows = []
        for a in sweep:
            interval = planar.direction_cone_estimate(a, eps, params)
            cone_rows.append(
                (a, interval.lo, interval.hi, float(planar.nontangency_planar(a, eps, params)))
            )
        write_csv(out / "cones.csv", "a,lo_slope,hi_slope,nontangent", cone_rows)
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(args.experiment_id, out_dir=args.out)
    write_json(_out_dir(args) / "report.json", result.report)
    if not result.passed:
        print(f"experiment {result.experiment_id} verification FAILED:", file=sys.stderr)
        for line in result.failures:
            print(f"  - {line}", file=sys.stderr)
        return 2
    print(f"experiment {result.experiment_id}: all checks passed")
    return 0


def _add_common(parser, *, seed: bool = False) -> None:
    parser.add_argument("--network", required=True, help="network definition file")
    parser.add_argument("--out", default=".", help="output directory")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselock",
        description="Simulate and analyze synchronization in coupled-oscillator networks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate a trajectory and write trajectory.csv")
    _add_common(p, seed=True)
    p.add_argument("--t-end", type=float, default=50.0, help="simulated time, s")
    p.add_argument("--dt", type=float, default=0.01, help="integration step, s")
    p.add_argument("--theta0", help="comma-separated initial phases (default: random)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="equilibrium, spectrum, classification, bounds")
    _add_common(p, seed=True)
    p.add_argument("--guess", help="comma-separated initial phases for the solver")
    p.add_argument("--delta", type=float, default=0.5, help="attracting-set angle, rad")
    p.add_argument("--certify", action="store_true", help="also run the invariance certificate")
    p.add_argument("--samples", type=int, default=100, help="certificate sample count")
    p.add_argument("--t-end", type=float, default=50.0, help="certificate horizon, s")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="coupling-gain thresholds only")
    _add_common(p)
    p.add_argument("--delta", type=float, default=0.5, help="attracting-set angle, rad")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("invariance", help="Monte-Carlo invariant-set certificate")
    _add_common(p, seed=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--t-end", type=float, default=50.0, help="certificate horizon, s")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--margin", type=float, default=0.1, help="box shrink for sampling, rad")
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("portrait", help="vector-field grid (2- or 3-oscillator networks)")
    _add_common(p)
    p.add_argument("--grid", type=int, default=21, help="grid resolution per axis")
    p.add_argument("--x1-min", type=float, default=-np.pi)
    p.add_argument("--x1-max", type=float, default=np.pi)
    p.add_argument("--x2-min", type=float, default=-np.pi)
    p.add_argument("--x2-max", type=float, default=np.pi)
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("experiment", help="run a bundled verification experiment")
    p.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_experiment)

    return parser


# parse_args leaves the parser unchanged, so one serves every call in the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
