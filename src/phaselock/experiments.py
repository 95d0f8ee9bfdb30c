"""Bundled end-to-end experiments with verifiable outcomes.

``three_chain`` is an open chain of three oscillators with omega = (1, 2, 3)
and gains (9, 6, 0); in per-pair form (before the 1/N normalization of the
node equation) the same system reads diag(3, 2, 0), and its reduced
phase-difference dynamics have a single fixed point inside the half-circle
box at (x1, x2) = (0, -pi/6).

``five_network`` couples five oscillators with omega = (1, ..., 5) on a
ring with two chords; from the bundled initial phases all node frequencies
settle to the mean, 3 rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    SEMISTABLE_CANDIDATE,
    classify_stability,
    solve_equilibrium,
    sync_frequency,
)
from .errors import NoEquilibriumError, SingularJacobianError
from .dynamics import simulate, vector_field_grid, wrap_phase
from .network import OscillatorNetwork, edge_count, edge_index
from .tables import write_csv, write_trajectory

__all__ = [
    "EXPERIMENT_IDS",
    "ExperimentResult",
    "three_chain_network",
    "five_network_network",
    "FIVE_NETWORK_THETA0",
    "run_experiment",
]

EXPERIMENT_IDS = ("three_chain", "five_network")

# five-oscillator topology: ring 1-2-3-4-5-1 plus chords (1,5) is the ring
# closure, extra chord (2,5); gains sized comfortably above the per-edge
# sufficient thresholds (N/2)|omega_i - omega_j|
_FIVE_EDGES = {(0, 1): 4.0, (1, 2): 4.0, (2, 3): 4.0, (3, 4): 4.0, (0, 4): 13.0, (1, 4): 10.0}

FIVE_NETWORK_THETA0 = np.array(
    [-2 * np.pi / 3, 2 * np.pi / 3, np.pi / 3, -np.pi / 6, 0.0]
)


def three_chain_network() -> OscillatorNetwork:
    """Open chain 1-2-3 with omega = (1, 2, 3) and gains (9, 6, 0)."""
    return OscillatorNetwork(
        n_oscillators=3,
        natural_frequencies=np.array([1.0, 2.0, 3.0]),
        coupling_gains=np.array([9.0, 6.0, 0.0]),
    )


def five_network_network() -> OscillatorNetwork:
    """Five oscillators, omega = 1..5, connected ring-plus-chord topology."""
    gains = np.zeros(edge_count(5))
    for (i, j), k in _FIVE_EDGES.items():
        gains[edge_index(5, i, j)] = k
    return OscillatorNetwork(
        n_oscillators=5,
        natural_frequencies=np.arange(1.0, 6.0),
        coupling_gains=gains,
    )


@dataclass
class ExperimentResult:
    """Outcome of an experiment run with any verification mismatches."""

    experiment_id: str
    passed: bool
    report: dict
    failures: list[str] = field(default_factory=list)


def _run_three_chain(out_dir: Path) -> ExperimentResult:
    net = three_chain_network()
    failures: list[str] = []

    grid = vector_field_grid(net, resolution=41)
    write_csv(out_dir / "field.csv", "x1,x2,dx1,dx2", grid)

    x_star = solve_equilibrium(net)
    expected = np.array([0.0, -np.pi / 6])
    err = np.abs(x_star[:2] - expected)
    if np.max(err) > 1e-9:
        failures.append(
            f"fixed point: expected (x1, x2) = (0, {-np.pi / 6:.15g}), "
            f"got ({x_star[0]:.15g}, {x_star[1]:.15g})"
        )

    report_stab = classify_stability(net, x_star)
    if report_stab.classification != SEMISTABLE_CANDIDATE:
        failures.append(
            f"classification: expected {SEMISTABLE_CANDIDATE}, got {report_stab.classification}"
        )

    # the fixed point is the only one inside the half-circle box: Newton
    # from a coarse sweep of in-box guesses must land on the same X*
    found = []
    for t1 in np.linspace(-0.6, 0.6, 4):
        for t2 in np.linspace(-0.6, 0.6, 4):
            try:
                cand = solve_equilibrium(net, theta_guess=np.array([t1, t2, 0.0]))
            except (NoEquilibriumError, SingularJacobianError):
                continue
            if np.all(np.abs(wrap_phase(cand)) < np.pi / 2):
                found.append(wrap_phase(cand))
    if found and np.max(np.abs(np.array(found) - wrap_phase(x_star))) > 1e-8:
        failures.append("sweep found an additional in-box fixed point")

    report = {
        "network": {"n": 3, "omega": [1.0, 2.0, 3.0], "coupling": [9.0, 6.0, 0.0]},
        "fixed_point": x_star.tolist(),
        "fixed_point_error": err.tolist(),
        "classification": report_stab.classification,
        "eigenvalues": [[z.real, z.imag] for z in report_stab.eigenvalues],
    }
    return ExperimentResult(
        experiment_id="three_chain",
        passed=not failures,
        report=report,
        failures=failures,
    )


def _run_five_network(out_dir: Path) -> ExperimentResult:
    net = five_network_network()
    failures: list[str] = []
    traj = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)

    target = sync_frequency(net)
    final_dots = traj.theta_dots[-1]
    worst = float(np.max(np.abs(final_dots - target)))
    if worst > 1e-6:
        failures.append(
            f"frequencies: expected all within 1e-6 of {target:g} rad/s, "
            f"worst deviation {worst:.3g}"
        )

    write_trajectory(out_dir / "trajectory.csv", traj)

    report = {
        "network": {
            "n": 5,
            "omega": net.natural_frequencies.tolist(),
            "coupling": net.coupling_gains.tolist(),
        },
        "theta0": FIVE_NETWORK_THETA0.tolist(),
        "sync_frequency": target,
        "final_frequencies": final_dots.tolist(),
        "worst_deviation": worst,
        "synchronized_at": traj.synchronized_at,
    }
    return ExperimentResult(
        experiment_id="five_network",
        passed=not failures,
        report=report,
        failures=failures,
    )


def run_experiment(experiment_id: str, out_dir=".") -> ExperimentResult:
    """Run a bundled experiment, writing its CSV outputs into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if experiment_id == "three_chain":
        return _run_three_chain(out_dir)
    if experiment_id == "five_network":
        return _run_five_network(out_dir)
    raise ValueError(f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}")
