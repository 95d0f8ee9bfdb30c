"""Command-line front end.

Subcommands: simulate, analyze, bounds, invariance, portrait, experiment.
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
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, planar
from .dynamics import simulate, vector_field_grid
from .errors import (
    DivergenceError,
    NetworkFileError,
    NoEquilibriumError,
    OutOfDomainError,
    SamplingInfeasibleError,
    SingularJacobianError,
)
from .experiments import EXPERIMENT_IDS, run_experiment
from .netfile import parse_network
from .tables import write_csv, write_json, write_trajectory

__all__ = ["RunConfig", "main"]

_USER_ERRORS = (
    NetworkFileError,
    NoEquilibriumError,
    SingularJacobianError,
    SamplingInfeasibleError,
    DivergenceError,
    OutOfDomainError,
    ValueError,
    OSError,
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: subcommand plus the shared numeric options."""

    subcommand: str
    network_path: str | None
    t_end: float
    dt: float
    seed: int
    output_dir: str
    experiment_id: str | None = None

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ValueError("t_end must be finite and at least dt")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        network_path=getattr(args, "network", None),
        t_end=getattr(args, "t_end", 50.0),
        dt=getattr(args, "dt", 0.01),
        seed=getattr(args, "seed", 0),
        output_dir=args.out,
        experiment_id=getattr(args, "experiment_id", None),
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(config: RunConfig, args) -> int:
    net = parse_network(config.network_path)
    if args.theta0 is not None:
        theta0 = np.array([float(v) for v in args.theta0.split(",")])
        if theta0.size != net.n_oscillators:
            raise ValueError(
                f"--theta0 needs {net.n_oscillators} comma-separated values"
            )
    else:
        rng = np.random.default_rng(config.seed)
        theta0 = rng.uniform(-np.pi, np.pi, size=net.n_oscillators)
    traj = simulate(net, theta0, config.t_end, config.dt)
    write_trajectory(_out_dir(args) / "trajectory.csv", traj)
    return 0


def _bounds_payload(net, delta: float) -> dict:
    bounds = analysis.coupling_bounds(net, delta=delta)
    return {
        "per_edge_sufficient": bounds.per_edge_sufficient,
        "uniform_k0": bounds.uniform_k0,
        "onset_lower": bounds.onset_lower,
        "attracting_margin": bounds.attracting_margin,
        "attracting_satisfied": bounds.attracting_satisfied,
    }


def _analysis_payload(net, delta: float, guess=None) -> dict:
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


def _cmd_analyze(config: RunConfig, args) -> int:
    net = parse_network(config.network_path)
    guess = None
    if args.guess is not None:
        guess = np.array([float(v) for v in args.guess.split(",")])
    payload = _analysis_payload(net, args.delta, guess)
    certificate = None
    if args.certify:
        certificate = analysis.invariance_certificate(
            net, n_samples=args.samples, horizon=config.t_end, seed=config.seed
        )
        payload["certificates"] = _invariance_payload(certificate, _ANALYZE_CERT_KEYS)
    write_json(_out_dir(args) / "report.json", payload)
    if certificate is not None and not certificate.passed:
        return 2
    return 0


def _cmd_bounds(config: RunConfig, args) -> int:
    net = parse_network(config.network_path)
    write_json(_out_dir(args) / "bounds.json", _bounds_payload(net, args.delta))
    return 0


def _cmd_invariance(config: RunConfig, args) -> int:
    net = parse_network(config.network_path)
    report = analysis.invariance_certificate(
        net,
        n_samples=args.samples,
        horizon=config.t_end,
        dt=config.dt,
        margin=args.margin,
        seed=config.seed,
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


def _cmd_portrait(config: RunConfig, args) -> int:
    net = parse_network(config.network_path)
    out = _out_dir(args)
    grid = vector_field_grid(
        net,
        x1_range=(args.x1_min, args.x1_max),
        x2_range=(args.x2_min, args.x2_max),
        resolution=args.grid,
    )
    write_csv(out / "field.csv", "x1,x2,dx1,dx2", grid)

    if net.n_oscillators == 2:
        params = planar.PlanarParams(
            k=float(net.coupling_gains[0]),
            delta_omega=float(
                net.natural_frequencies[0] - net.natural_frequencies[1]
            ),
        )
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


def _cmd_experiment(config: RunConfig, args) -> int:
    result = run_experiment(config.experiment_id, out_dir=config.output_dir)
    write_json(_out_dir(args) / "report.json", result.report)
    if not result.passed:
        print(f"experiment {result.experiment_id} verification FAILED:", file=sys.stderr)
        for line in result.failures:
            print(f"  - {line}", file=sys.stderr)
        return 2
    print(f"experiment {result.experiment_id}: all checks passed")
    return 0


def _add_common(parser, *, network_required: bool = True) -> None:
    parser.add_argument("--network", required=network_required, help="network definition file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselock",
        description="Simulate and analyze synchronization in coupled-oscillator networks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="integrate a trajectory and write trajectory.csv")
    _add_common(p)
    p.add_argument("--t-end", type=float, default=50.0, help="simulated time, s")
    p.add_argument("--dt", type=float, default=0.01, help="integration step, s")
    p.add_argument("--theta0", help="comma-separated initial phases (default: random)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="equilibrium, spectrum, classification, bounds")
    _add_common(p)
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
    _add_common(p)
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
        config = _config_from_args(args)
        return args.func(config, args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
