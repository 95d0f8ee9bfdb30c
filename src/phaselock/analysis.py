"""Equilibrium location, linearized stability, coupling-gain thresholds,
invariant-set certificates, and Lyapunov diagnostics for oscillator
networks of any size.

Phase-locked states solve B^T omega - B^T B K sin(X) = 0 on the column
space of B^T. Linearizing the edge-space flow about (X*, 0) gives the
block matrix A = [[0, I], [0, G(X*)]], G = -B^T B K diag(cos X*), whose
spectrum is 2e - (N-1) structural zeros plus the spectrum of -L(X*) on the
complement of the ones vector, L(X) = B K diag(cos X) B^T being the N x N
weighted graph Laplacian, which Newton and the classification read on that
complement as V^T L V in one Householder basis V (``_restricted_laplacian``;
no e x e matrix). Inside the open box (``_in_box``) every cos x_i > 0, so L
is positive semidefinite with kernel the ones vector iff the positive-gain
graph is connected (Fiedler 1973): the in-box verdicts read that graph. L
and the other edge products come from ``network``.

The invariant set H is the open box |x_i| < pi/2 intersected with the
column space, with frequency differences slaved to the phases through the
consistency identity; membership additionally requires the per-edge gain
inequality that blocks exit through each box face.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    EdgeState,
    Trajectory,
    _edge_field,
    _rk4_steps,
    _row_slices,
    _validate_grid,
    g_matrix,
    theta_dot,
)
from .errors import NoEquilibriumError, SingularJacobianError
from .network import OscillatorNetwork, edge_count, is_connected
from .network import _btb, _edge_diff, _frame, _laplacian, _neighbor_sum, _unframe, _vector

__all__ = [
    "SEMISTABLE_CANDIDATE",
    "UNSTABLE",
    "INDETERMINATE",
    "StabilityReport",
    "CouplingBounds",
    "SetHMembership",
    "AttractingSetReport",
    "InvarianceReport",
    "solve_equilibrium",
    "linearize",
    "classify_stability",
    "sufficient_gain_bounds",
    "uniform_critical_gain",
    "onset_lower_bounds",
    "coupling_bounds",
    "in_set_h",
    "invariance_certificate",
    "nontangency_rank_test",
    "lyapunov_v2_along",
    "attracting_set_check",
    "lyapunov_v3",
    "sync_frequency",
]

SEMISTABLE_CANDIDATE = "semistable-candidate"
UNSTABLE = "unstable"
INDETERMINATE = "indeterminate"

RANK_TOL = 1e-10  # relative eigenvalue cutoff for rank decisions
NEWTON_MAX_ITER = 100  # Newton iterations before NoEquilibriumError
NEWTON_TOL = 1e-12  # Newton stops once the edge residual max norm ptp(f) is below it
ZERO_TOL = 1e-9  # eigenvalue cutoff for "negligible", relative to |A|_2
COLSPACE_TOL = 1e-9  # set H: 2-norm distance of X from the column space
CONSISTENCY_TOL = 1e-9  # set H: max-norm mismatch of V with the identity


def _edge_frequency_mismatch(net: OscillatorNetwork, s: float, edges=slice(None)) -> np.ndarray:
    """|B^T omega| / s at the edge positions ``edges``, s from ``_frame``."""
    return np.abs(_edge_diff(net, net.natural_frequencies / s, edges))


@functools.lru_cache(maxsize=1)
def _complement_basis(n: int) -> np.ndarray:
    """Householder basis of the complement of the ones vector in R^n, read-only."""
    u = np.eye(n)[-1] - 1.0 / np.sqrt(n)
    v = np.eye(n, n - 1) - (2.0 / (u @ u)) * np.outer(u, u[:-1])
    v.flags.writeable = False
    return v


def _restricted_laplacian(net: OscillatorNetwork, w: np.ndarray) -> np.ndarray:
    """V^T L(w) V: the weighted Laplacian of edge weights w (edge index
    last) on the complement of the ones vector, V from ``_complement_basis``."""
    v = _complement_basis(net.n_oscillators)
    return v.T @ _laplacian(net, w) @ v


def _in_box(x: np.ndarray) -> bool:
    """Every edge phase difference lies in the open half-circle box
    |x_i| < pi/2, where every cos x_i is positive."""
    return bool(np.all(np.abs(x) < np.pi / 2))


def sync_frequency(net: OscillatorNetwork) -> float:
    """Common limit frequency of a synchronized network: the mean of omega,
    its sum correctly rounded (``math.fsum``) in a power-of-two frame s taken
    from omega alone, so that no partial sum overflows."""
    omega, n = net.natural_frequencies, net.n_oscillators
    top = math.frexp(float(np.abs(omega).max()))[1]
    s = 2.0 ** max(0, top + n.bit_length() - 1022)
    return _unframe(s, math.fsum(omega / s) / n)


def _sufficient_gains(net: OscillatorNetwork, s: float, edges=slice(None)) -> np.ndarray:
    """(N/2) |omega_i - omega_j| at the edge positions ``edges``, computed
    in the frame s from ``_frame``."""
    return _unframe(s, 0.5 * net.n_oscillators * _edge_frequency_mismatch(net, s, edges))


def sufficient_gain_bounds(net: OscillatorNetwork) -> np.ndarray:
    """Per-edge gain thresholds (N/2) |omega_i - omega_j| that make the
    half-circle box positively invariant, one per edge in edge order."""
    return _sufficient_gains(net, _frame(net))


def uniform_critical_gain(net: OscillatorNetwork) -> float:
    """K0 = N max|omega_i - omega_j| / (2(N-1)), a necessary condition on a
    uniform gain for a phase-locked state (Jadbabaie, Motee & Barahona,
    ACC 2004; Chopra & Spong, IEEE TAC 2009), not the critical gain."""
    n, s = net.n_oscillators, _frame(net)
    # rounded subtraction is monotone: ptp is the largest edge mismatch, bit for bit
    top = float(np.ptp(net.natural_frequencies / s))
    return _unframe(s, n * top / (2.0 * (n - 1)))


def onset_lower_bounds(net: OscillatorNetwork) -> np.ndarray:
    """Minimum gain per edge, given the other gains, below which the
    frequency mismatch on that edge cannot be balanced anywhere in the box.

    Rearranges |omega_i - omega_j| < (2/N) Ktilde_i
    + (1/N) sum_{j != i} |(B^T B)_{ij}| Ktilde_j for Ktilde_i, clipped at 0.
    """
    n, s = net.n_oscillators, _frame(net)
    excess = n * _edge_frequency_mismatch(net, s) - _neighbor_sum(net, net.coupling_gains / s)
    return _unframe(s, np.maximum(0.0, 0.5 * excess))


@dataclass(frozen=True)
class StabilityReport:
    """Linearization summary at an equilibrium of the edge-space flow."""

    equilibrium_x: np.ndarray
    eigenvalues: np.ndarray  # spectrum of the 2e x 2e block matrix
    n_zero: int
    classification: str
    g_restricted_eigenvalues: np.ndarray  # spectrum of G on the column space
    zero_tolerance: float


@dataclass(frozen=True)
class CouplingBounds:
    """Collected gain thresholds and the attracting-set margin."""

    per_edge_sufficient: np.ndarray
    uniform_k0: float
    onset_lower: np.ndarray
    attracting_margin: float
    attracting_satisfied: bool


@dataclass(frozen=True)
class SetHMembership:
    """Outcome of a membership test for the invariant set."""

    in_set: bool
    slack: np.ndarray  # per-edge inequality margin, RHS - LHS
    in_box: bool
    in_colspace: bool
    v_consistent: bool


@dataclass(frozen=True)
class AttractingSetReport:
    """Gain condition under which the half-circle box attracts the
    surrounding phase region."""

    satisfied: bool
    margin: float  # LHS - RHS of the gain inequality
    side_condition_ok: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class InvarianceReport:
    """Monte-Carlo certificate that sampled trajectories stay in the set:
    its verdict counts, without the trajectories behind them."""

    passed: bool
    bounds_met: bool
    n_samples: int
    n_stayed: int
    fraction: float
    horizon: float
    dt: float
    margin: float
    seed: int | None


def solve_equilibrium(net: OscillatorNetwork, theta_guess=None) -> np.ndarray:
    """Newton-solve B^T omega - B^T B K sin(B^T theta) = 0 for the edge
    phase differences X* = B^T theta*.

    Newton runs on the node field f = omega - B K sin(B^T theta), whose edge
    residual B^T f has max norm ptp(f). Its Jacobian -L(X) is singular along
    the ones vector (the common rotation), so each step is taken on the
    complement: with V the basis ``_complement_basis`` and
    V^T L(X) V = Q diag(lambda) Q^T, theta += V Q diag(1/lambda) Q^T V^T f.
    It steps where every |lambda| exceeds RANK_TOL times the largest or, in
    the box on a connected positive-gain graph, lambda_min > 0; else it
    raises SingularJacobianError naming weak coupling (that case), a
    cos(x_i) = 0 crossing or a disconnected positive-gain graph; and
    NoEquilibriumError when the residual is not finite or does not fall
    below ``NEWTON_TOL`` within ``NEWTON_MAX_ITER`` iterations, which
    typically means the gains are below critical.
    """
    n = net.n_oscillators
    if theta_guess is None:
        theta = np.zeros(n)
    else:
        theta = np.array(_vector(theta_guess, n, "theta_guess"))  # Newton steps it in place
        if np.ptp(theta) >= np.pi:
            raise ValueError("theta_guess must have phase spread below pi")

    scale = max(1.0, float(np.max(net.coupling_gains)))

    # an overflowing input ends in a non-finite residual, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            x = _edge_diff(net, theta)
            f = theta_dot(theta, net)
            residual = f.max() - f.min()
            if not np.isfinite(residual):
                raise NoEquilibriumError(f"Newton residual is not finite ({residual:g})")
            if residual < NEWTON_TOL:
                return x
            lam, q = np.linalg.eigh(_restricted_laplacian(net, net.coupling_diag * np.cos(x)))
            mag = np.abs(lam)
            if mag.max() < 1e-12 * scale or not np.all(mag > RANK_TOL * mag.max()):
                # in the box on a connected graph L(X) is nonsingular there
                connected = is_connected(net)
                weak = connected and _in_box(x)
                if not (weak and lam[0] > 0.0):
                    cause = (
                        "weak coupling: every eigenvalue is 0"
                        if weak and not mag.max()
                        else f"weak coupling: smallest eigenvalue {lam[0] / lam[-1]:.3g} "
                        "of the largest"
                        if weak
                        else "equilibrium near a cos(x_i) = 0 crossing"
                        if connected
                        else "the positive-gain graph is disconnected"
                    )
                    raise SingularJacobianError(f"Jacobian rank-deficient at iterate; {cause}")
            v = _complement_basis(n)
            theta += v @ (q @ ((q.T @ (v.T @ f)) / lam))

    raise NoEquilibriumError(
        f"Newton did not reach |residual| < {NEWTON_TOL:g} in {NEWTON_MAX_ITER} iterations; "
        "coupling gains may be below critical"
    )


def linearize(net: OscillatorNetwork, x_star) -> np.ndarray:
    """Block matrix [[0, I], [0, G(X*)]] of the edge-space linearization.

    Dense 2e x 2e: 784 MB at N = 100 and 12.7 GB at N = 200. No library
    path forms it; ``classify_stability`` reads its spectrum off L(X*).
    """
    x_star = _vector(x_star, net.n_edges, "x_star")
    e = net.n_edges
    a = np.zeros((2 * e, 2 * e))
    a[:e, e:] = np.eye(e)
    a[e:, e:] = g_matrix(x_star, net)
    return a


def classify_stability(net: OscillatorNetwork, x_star) -> StabilityReport:
    """Classify the equilibrium by the positive-gain graph inside the box,
    by the linearization spectrum outside it.

    The spectrum of A = [[0, I], [0, G(X*)]] (``eigenvalues``) is
    2e - (N-1) exact zeros plus the N-1 real eigenvalues of -L(X*) on the
    complement of the ones vector (``g_restricted_eigenvalues``). ``ZERO_TOL``
    is relative to |A|_2 = sqrt(1 + N lambda_max(L((k cos X*)^2))), taken
    with the weights scaled by their largest magnitude so that huge gains
    cannot overflow; ``n_zero`` counts the eigenvalues below it.

    semistable-candidate: X* inside the open half-circle box, where L(X*) is
    positive semidefinite, and the positive-gain graph connected, so its
    kernel is the ones vector (n_zero may exceed 2e - (N-1) on a weak link).
    unstable: X* outside the box and a restricted eigenvalue above the
    tolerance. Else indeterminate.
    """
    x_star = _vector(x_star, net.n_edges, "x_star")
    n, e = net.n_oscillators, net.n_edges
    w = net.coupling_diag * np.cos(x_star)
    s = np.abs(w).max()
    spec, spec_sq = np.linalg.eigvalsh(
        _restricted_laplacian(net, np.stack([w, (w / (s or 1.0)) ** 2]))
    )
    restricted = -spec[::-1]
    eigs = np.sort(np.concatenate([np.zeros(2 * e - (n - 1)), restricted])).astype(complex)
    tol_abs = ZERO_TOL * np.hypot(1.0, s * np.sqrt(n * spec_sq[-1]))
    n_zero = 2 * e - (n - 1) + int(np.sum(np.abs(restricted) < tol_abs))

    if _in_box(x_star):
        classification = SEMISTABLE_CANDIDATE if is_connected(net) else INDETERMINATE
    else:
        classification = UNSTABLE if np.any(restricted > tol_abs) else INDETERMINATE

    return StabilityReport(
        equilibrium_x=x_star,
        eigenvalues=eigs,
        n_zero=n_zero,
        classification=classification,
        g_restricted_eigenvalues=restricted.astype(complex),
        zero_tolerance=float(tol_abs),
    )


def nontangency_rank_test(net: OscillatorNetwork, x) -> bool:
    """True iff G(X) v = 0 forces v = 0 on the column space of B^T.

    X must lie strictly inside the half-circle box, where every cos x_i is
    positive and L(X) a positive-semidefinite Laplacian: this holds exactly
    when the positive-gain graph is connected, which is what is tested.
    """
    x = _vector(x, net.n_edges, "x")
    if not _in_box(x):
        raise ValueError("x must lie strictly inside the half-circle box")
    return is_connected(net)


def in_set_h(state: EdgeState, net: OscillatorNetwork) -> SetHMembership:
    """Membership of an edge state in the invariant set.

    Requires every |x_i| < pi/2, X in the column space of B^T, V matching
    the consistency identity B^T omega - B^T B K sin(X) to within
    ``CONSISTENCY_TOL`` (an entry equal to it matches, infinities
    included), and the per-edge gain inequality evaluated at the current
    X. The slack vector reports the inequality margin edge by edge.
    """
    x, v = state.x, state.v
    e = net.n_edges
    if x.shape != (e,):
        raise ValueError(f"state has {x.shape[0]} edges, expected {e}")
    in_box = _in_box(x)
    # projector onto Col(B^T) is B^T B / N for the complete-graph incidence
    residual = x - _btb(net, x) / net.n_oscillators
    in_colspace = bool(np.linalg.norm(residual) <= COLSPACE_TOL)
    field = _edge_field(net, x)
    with np.errstate(invalid="ignore"):  # inf - inf where both hold the same inf
        mismatch = np.abs(v - field)
    v_consistent = bool(np.all((mismatch <= CONSISTENCY_TOL) | (v == field)))
    # per-edge slack RHS - LHS of the face-blocking gain inequality
    n, s = net.n_oscillators, _frame(net)
    gains = net.coupling_gains / s
    rhs = (2.0 / n) * gains + _neighbor_sum(net, gains * np.sin(np.abs(x))) / n
    slack = _unframe(s, rhs - _edge_frequency_mismatch(net, s))
    return SetHMembership(
        in_set=in_box and in_colspace and v_consistent and bool(np.all(slack >= 0.0)),
        slack=slack,
        in_box=in_box,
        in_colspace=in_colspace,
        v_consistent=v_consistent,
    )


def lyapunov_v2_along(traj: Trajectory, net: OscillatorNetwork):
    """Kinetic-style certificate V2 = |V|^2 / 2 and its flow derivative
    V^T G(X) V at every stored step of a trajectory. As V = B^T theta_dot
    and B B^T = N I - 1 1^T on the complete graph, V^T G(X) V is
    -N sum_e k_e cos(x_e) v_e^2, never positive inside the box."""
    x = traj.edge_x(net)
    v = traj.edge_v(net)
    v2 = 0.5 * np.sum(v * v, axis=1)
    v2_dot = -net.n_oscillators * np.sum(net.coupling_diag * np.cos(x) * v * v, axis=1)
    return v2, v2_dot


def lyapunov_v3(x, n_oscillators: int):
    """Nonsmooth potential sum_i |x_i| - (N-1) pi/2.

    Accepts a single edge vector or a (T, e) stack, e = N(N-1)/2 (else
    ValueError); returns a float or a (T,) array accordingly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (edge_count(n_oscillators),):
        raise ValueError(f"x must hold {edge_count(n_oscillators)} edges on its last axis")
    value = np.sum(np.abs(x), axis=-1) - (n_oscillators - 1) * np.pi / 2.0
    if value.ndim == 0:
        return float(value)
    return value


def attracting_set_check(net: OscillatorNetwork, delta: float) -> AttractingSetReport:
    """Gain condition making the half-circle box attract phases within
    delta of the full circle.

    The gain spread Delta_m is taken over the nonzero gains only; with
    structural zeros included the condition would be vacuous for any sparse
    topology. The side requirement that every nonzero gain exceeds
    (N-2) Delta_m / 2 is reported and folded into the verdict.
    """
    if not (np.isfinite(delta) and 0.0 < delta < np.pi):
        raise ValueError("delta must lie in (0, pi)")
    n, s = net.n_oscillators, _frame(net)
    active = net.coupling_gains > 0.0  # before scaling, which may flush a tiny gain to 0
    gains = net.coupling_gains / s
    delta_m = float(np.ptp(gains[active])) if np.any(active) else 0.0
    lhs = float(np.sum(2.0 * gains[active] - (n - 2) * delta_m) * np.sin(abs(delta)) / n)
    mismatch = float(np.sum(_edge_frequency_mismatch(net, s)))
    rhs = mismatch + np.count_nonzero(~active) * (n - 2) * delta_m / n
    side_ok = bool(np.all(gains[active] >= (n - 2) * delta_m / 2.0))
    return AttractingSetReport(
        satisfied=bool(lhs > rhs) and side_ok,
        margin=_unframe(s, lhs - rhs),
        side_condition_ok=side_ok,
        lhs=_unframe(s, lhs),
        rhs=_unframe(s, rhs),
    )


def coupling_bounds(net: OscillatorNetwork, delta: float = 0.5) -> CouplingBounds:
    """Bundle the gain thresholds with the attracting-set margin at delta."""
    attracting = attracting_set_check(net, delta)
    return CouplingBounds(
        per_edge_sufficient=sufficient_gain_bounds(net),
        uniform_k0=uniform_critical_gain(net),
        onset_lower=onset_lower_bounds(net),
        attracting_margin=attracting.margin,
        attracting_satisfied=attracting.satisfied,
    )


def _sample_box_states(
    net: OscillatorNetwork,
    n_samples: int,
    margin: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw node phases uniformly from [-pi/2, pi/2]^N restricted to spread
    max - min < w = pi/2 - margin, so every edge difference lies in the
    shrunken box |x_i| < w; returns shape (N, n_samples).

    The draw is exact at every N. The argmin node is uniform, the other
    offsets from the minimum are uniform in [0, w], and a draw is kept with
    probability (pi - max offset) / pi, the length of the interval
    [-pi/2, pi/2 - max offset] in which the minimum is then placed
    uniformly. As w <= pi/2, each draw is kept with probability above 1/2.
    """
    if not 0 <= margin < np.pi / 2:
        raise ValueError("margin must lie in [0, pi/2)")
    w = np.pi / 2 - margin
    n = net.n_oscillators
    parts = []
    missing = n_samples
    while missing > 0:
        m = 2 * missing  # each draw is kept with probability above 1/2
        offsets = rng.uniform(0.0, w, size=(n, m))
        offsets[rng.integers(n, size=m), np.arange(m)] = 0.0
        top = offsets.max(axis=0)
        kept = rng.uniform(0.0, np.pi, size=m) < np.pi - top
        theta = offsets[:, kept] + rng.uniform(-np.pi / 2, np.pi / 2 - top[kept])
        # rounding in the sum must not carry a column out of the box
        theta = theta[:, np.ptp(theta, axis=0) < w]
        parts.append(theta)
        missing -= theta.shape[1]
    return np.concatenate(parts, axis=1)[:, :n_samples]


def _stays_in_box(theta: np.ndarray) -> np.ndarray:
    """Per column of node phases theta (N, m): the spread max - min lies in
    the open box |x| < pi/2.

    theta are the unwrapped phases the certificate integrates. Each column
    starts with spread below pi/2 and moves continuously, so while its
    spread is below pi it is its largest circular pairwise distance; once it
    passes pi/2 the column has left the box, even if a wrap reads it inside.
    """
    return np.ptp(theta, axis=0) < np.pi / 2


def invariance_certificate(
    net: OscillatorNetwork,
    n_samples: int = 100,
    horizon: float = 50.0,
    dt: float = 0.01,
    margin: float = 0.1,
    seed: int | None = None,
) -> InvarianceReport:
    """Monte-Carlo check that trajectories started in the invariant set
    stay there for the whole horizon.

    Initial phases are drawn exactly, at any N, uniformly from
    [-pi/2, pi/2]^N with spread below pi/2 - margin, so every edge
    difference starts in the box shrunk by ``margin`` (which must lie in
    [0, pi/2)). Gains below the per-edge sufficient thresholds are flagged
    (``bounds_met``) but the certificate still runs; escapes then show up
    as a fraction below one rather than an error. The gains are compared
    with their thresholds one block of edges at a time, all in one frame
    (``_frame``, taken once), so the check is O(e) and forms no e-long
    array; ``bounds_met`` reads as
    ``np.all(gains >= sufficient_gain_bounds(net) - 1e-12)`` would.
    Along integrated trajectories the frequency differences satisfy the
    consistency identity by construction, and whenever the gain bounds are
    met the per-edge face inequality holds for every in-box state, so the
    per-step membership check reduces to confinement in the open box.

    Each RK4 step is judged as it is taken, by the spread of the unwrapped
    phases (``_stays_in_box``), and only a per-sample verdict is kept, so
    memory is O(N n_samples) whatever the horizon, even as samples escape.
    The whole batch is integrated until no sample stays, which settles the
    verdict: a state going non-finite after that raises nothing. No
    trajectory is stored; ``simulate_many`` recomputes them from the starts
    ``_sample_box_states`` draws with ``default_rng(seed)``. Their ``edge_x``
    gives the same verdict except where one step moves a difference by more
    than pi, which it wraps back.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_steps = _validate_grid(horizon, dt)
    rng = np.random.default_rng(seed)
    s = _frame(net)
    # one block of edges at a time, so the certificate forms no e-long array
    bounds_met = all(
        np.all(net.coupling_gains[b] >= _sufficient_gains(net, s, b) - 1e-12)
        for b in _row_slices(net.n_edges, 1)
    )
    theta0s = _sample_box_states(net, n_samples, margin, rng)
    stayed = np.ones(n_samples, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, theta, _ in _rk4_steps(net, theta0s, n_steps, dt):
            stayed &= _stays_in_box(theta)
            if not stayed.any():  # no later step can change the verdict
                break

    n_stayed = int(np.sum(stayed))
    fraction = n_stayed / n_samples
    return InvarianceReport(
        passed=fraction == 1.0,
        bounds_met=bounds_met,
        n_samples=n_samples,
        n_stayed=n_stayed,
        fraction=fraction,
        horizon=horizon,
        dt=dt,
        margin=margin,
        seed=seed,
    )
