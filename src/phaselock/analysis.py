"""Equilibrium location, linearized stability, coupling-gain thresholds,
invariant-set certificates, and Lyapunov diagnostics for oscillator
networks of any size.

Phase-locked states solve B^T omega - B^T B K sin(X) = 0 on the column
space of B^T. Linearizing the edge-space flow about (X*, 0) gives the
block matrix A = [[0, I], [0, G(X*)]], G = -B^T B K diag(cos X*), whose
spectrum is 2e - (N-1) structural zeros plus the spectrum of -L(X*) on the
complement of the ones vector, L(X) = B K diag(cos X) B^T being the N x N
weighted graph Laplacian. Classification, the Newton solve and the
nontangency rank test all work with L on that complement, in one
Householder basis, so they form no e x e matrix and pin no phase; Newton
and the rank test share one rank rule. L and the other edge products are
imported from ``network``, which owns the edge order.

The invariant set H is the open box |x_i| < pi/2 intersected with the
column space, with frequency differences slaved to the phases through the
consistency identity; membership additionally requires the per-edge gain
inequality that blocks exit through each box face.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    EdgeState,
    Trajectory,
    _edge_field,
    _edge_vector,
    _node_field,
    _rk4_steps,
    _validate_grid,
    g_matrix,
    simulate_many,
    theta_dot,
    wrap_phase,
)
from .errors import NoEquilibriumError, SingularJacobianError
from .network import OscillatorNetwork, is_connected
from .network import _edge_diff, _laplacian, _neighbor_sum, _node_sums

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
ZERO_TOL = 1e-9  # eigenvalue cutoff for "negligible", relative to |A|_2
COLSPACE_TOL = 1e-9  # set H: 2-norm distance of X from the column space
CONSISTENCY_TOL = 1e-9  # set H: max-norm mismatch of V with the identity


def _edge_frequency_mismatch(net: OscillatorNetwork) -> np.ndarray:
    """Per-edge |omega_i - omega_j| in edge order, i.e. |B^T omega|; a
    difference beyond the float range is inf, the bound it stands for."""
    with np.errstate(over="ignore"):
        return np.abs(_edge_diff(net, net.natural_frequencies))


@functools.lru_cache(maxsize=1)
def _complement_basis(n: int) -> np.ndarray:
    """Householder basis of the complement of the ones vector in R^n, read-only."""
    u = np.eye(n)[-1] - 1.0 / np.sqrt(n)
    v = np.eye(n, n - 1) - (2.0 / (u @ u)) * np.outer(u, u[:-1])
    v.flags.writeable = False
    return v


def _restricted_laplacian(net: OscillatorNetwork, w: np.ndarray):
    """Householder basis V of the complement of the ones vector, and V^T L(w) V."""
    v = _complement_basis(net.n_oscillators)
    return v, v.T @ _laplacian(net, w) @ v


def _full_rank(eigs: np.ndarray) -> bool:
    """The rank rule: every |eigenvalue| lies above RANK_TOL times the largest."""
    return bool(np.all(np.abs(eigs) > RANK_TOL * np.abs(eigs).max()))


def sync_frequency(net: OscillatorNetwork) -> float:
    """Common limit frequency of a synchronized network: the mean of omega."""
    return float(np.mean(net.natural_frequencies))


def sufficient_gain_bounds(net: OscillatorNetwork) -> np.ndarray:
    """Per-edge gain thresholds (N/2) |omega_i - omega_j| that make the
    half-circle box positively invariant."""
    return 0.5 * net.n_oscillators * _edge_frequency_mismatch(net)


def uniform_critical_gain(net: OscillatorNetwork) -> float:
    """K0 = N max|omega_i - omega_j| / (2(N-1)), a necessary condition on a
    uniform gain for a phase-locked state (Jadbabaie, Motee & Barahona,
    ACC 2004; Chopra & Spong, IEEE TAC 2009), not the critical gain."""
    n = net.n_oscillators
    return float(n * np.max(_edge_frequency_mismatch(net)) / (2.0 * (n - 1)))


def onset_lower_bounds(net: OscillatorNetwork) -> np.ndarray:
    """Minimum gain per edge, given the other gains, below which the
    frequency mismatch on that edge cannot be balanced anywhere in the box.

    Rearranges |omega_i - omega_j| < (2/N) Ktilde_i
    + (1/N) sum_{j != i} |(B^T B)_{ij}| Ktilde_j for Ktilde_i, clipped at 0.
    """
    n = net.n_oscillators
    neighbor = _neighbor_sum(net, net.coupling_gains)
    with np.errstate(over="ignore"):  # a mismatch past the float range: inf
        return np.maximum(0.0, 0.5 * (n * _edge_frequency_mismatch(net) - neighbor))


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
    """Monte-Carlo certificate that sampled trajectories stay in the set."""

    passed: bool
    bounds_met: bool
    n_samples: int
    n_stayed: int
    fraction: float
    horizon: float
    dt: float
    margin: float
    seed: int | None
    trajectories: list[Trajectory] = field(default_factory=list, repr=False)


def solve_equilibrium(
    net: OscillatorNetwork,
    theta_guess=None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Newton-solve B^T omega - B^T B K sin(B^T theta) = 0 for the edge
    phase differences X* = B^T theta*.

    Newton runs on the node field f = omega - B K sin(B^T theta), whose edge
    residual B^T f has max norm ptp(f). Its Jacobian -L(X) is singular along
    the ones vector (the common rotation), so each step is taken on the
    complement: with V the basis of ``_restricted_laplacian`` and
    V^T L(X) V = Q diag(lambda) Q^T, theta += V Q diag(1/lambda) Q^T V^T f.
    The same eigenvalues decide rank. Raises SingularJacobianError when
    L(X) drops rank on the complement (a cos(x_i) = 0 crossing, or a
    disconnected positive-gain graph, which the message then names) and
    NoEquilibriumError when the residual is not finite or does not reach
    ``tol`` within ``NEWTON_MAX_ITER`` iterations, which typically means
    the gains are below critical.
    """
    n = net.n_oscillators
    if theta_guess is None:
        theta = np.zeros(n)
    else:
        theta = np.array(theta_guess, dtype=float)
        if theta.shape != (n,):
            raise ValueError(f"theta_guess must have shape ({n},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_guess must be finite")
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
            if residual < tol:
                return x
            v, lap = _restricted_laplacian(net, net._k_diag * np.cos(x))
            lam, q = np.linalg.eigh(lap)
            if np.abs(lam).max() < 1e-12 * scale or not _full_rank(lam):
                cause = (
                    "equilibrium near a cos(x_i) = 0 crossing"
                    if is_connected(net)
                    else "the positive-gain graph is disconnected"
                )
                raise SingularJacobianError(f"Jacobian rank-deficient at iterate; {cause}")
            theta += v @ (q @ ((q.T @ (v.T @ f)) / lam))

    raise NoEquilibriumError(
        f"Newton did not reach |residual| < {tol:g} in {NEWTON_MAX_ITER} iterations; "
        "coupling gains may be below critical"
    )


def linearize(net: OscillatorNetwork, x_star) -> np.ndarray:
    """Block matrix [[0, I], [0, G(X*)]] of the edge-space linearization."""
    x_star = _edge_vector(net, x_star, "x_star")
    e = net.n_edges
    a = np.zeros((2 * e, 2 * e))
    a[:e, e:] = np.eye(e)
    a[e:, e:] = g_matrix(x_star, net)
    return a


def classify_stability(net: OscillatorNetwork, x_star) -> StabilityReport:
    """Classify the equilibrium from the linearization spectrum.

    The spectrum of A = [[0, I], [0, G(X*)]] (``eigenvalues``) is
    2e - (N-1) exact zeros plus the N-1 real eigenvalues of -L(X*) on the
    complement of the ones vector (``g_restricted_eigenvalues``), and the
    verdict reads those N-1 alone. ``ZERO_TOL`` is relative to
    |A|_2 = sqrt(1 + N lambda_max(L((k cos X*)^2))), taken with the weights
    scaled by their largest magnitude so that huge gains cannot overflow.

    unstable: a restricted eigenvalue above the tolerance.
    semistable-candidate: X* inside the open half-circle box and every
    restricted eigenvalue below minus the tolerance (so the negligible
    eigenvalues are the 2e - (N-1) structural zeros). Else indeterminate.
    """
    x_star = _edge_vector(net, x_star, "x_star")
    n, e = net.n_oscillators, net.n_edges
    w = net._k_diag * np.cos(x_star)
    s = np.abs(w).max()
    lap = _restricted_laplacian(net, np.stack([w, (w / (s or 1.0)) ** 2]))[1]
    spec, spec_sq = np.linalg.eigvalsh(lap)
    restricted = -spec[::-1]
    eigs = np.sort(np.concatenate([np.zeros(2 * e - (n - 1)), restricted])).astype(complex)
    tol_abs = ZERO_TOL * np.hypot(1.0, s * np.sqrt(n * spec_sq[-1]))
    n_zero = int(np.sum(np.abs(eigs) < tol_abs))

    if np.any(restricted > tol_abs):
        classification = UNSTABLE
    elif np.all(np.abs(x_star) < np.pi / 2) and np.all(restricted < -tol_abs):
        classification = SEMISTABLE_CANDIDATE
    else:
        classification = INDETERMINATE

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

    Computed as a numerical rank test of L(X) on the complement of the ones
    vector, whose |eigenvalues| are the singular values of G(X) on the
    column space; equivalent to connectivity of the positive-gain graph
    whenever X stays inside the open half-circle box.
    """
    x = _edge_vector(net, x)
    if np.any(np.abs(x) >= np.pi / 2):
        raise ValueError("x must lie strictly inside the half-circle box")
    _, lap = _restricted_laplacian(net, net._k_diag * np.cos(x))
    return _full_rank(np.linalg.eigvalsh(lap))


def _set_h_inequality(net: OscillatorNetwork, sin_abs_x: np.ndarray) -> np.ndarray:
    """Per-edge slack RHS - LHS of the face-blocking gain inequality.

    ``sin_abs_x`` is sin|X| with edge index last, so trajectories pass a
    (T, e) array and single states pass shape (e,).
    """
    n = net.n_oscillators
    lhs = _edge_frequency_mismatch(net)
    rhs = (2.0 / n) * net.coupling_gains + _neighbor_sum(net, net.coupling_gains * sin_abs_x) / n
    return rhs - lhs


def in_set_h(state: EdgeState, net: OscillatorNetwork) -> SetHMembership:
    """Membership of an edge state in the invariant set.

    Requires every |x_i| < pi/2, X in the column space of B^T, V matching
    the consistency identity B^T omega - B^T B K sin(X), and the per-edge
    gain inequality evaluated at the current X. The slack vector reports
    the inequality margin edge by edge.
    """
    x, v = state.x, state.v
    e = net.n_edges
    if x.shape != (e,):
        raise ValueError(f"state has {x.shape[0]} edges, expected {e}")
    in_box = bool(np.all(np.abs(x) < np.pi / 2))
    # projector onto Col(B^T) is B^T B / N for the complete-graph incidence
    residual = x - _edge_diff(net, _node_sums(net, x)) / net.n_oscillators
    in_colspace = bool(np.linalg.norm(residual) <= COLSPACE_TOL)
    v_consistent = bool(np.max(np.abs(v - _edge_field(net, x))) <= CONSISTENCY_TOL)
    slack = _set_h_inequality(net, np.sin(np.abs(x)))
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
    v2_dot = -net.n_oscillators * ((np.cos(x) * v * v) @ net._k_diag)
    return v2, v2_dot


def lyapunov_v3(x, n_oscillators: int):
    """Nonsmooth potential sum_i |x_i| - (N-1) pi/2.

    Accepts a single edge vector or a (T, e) stack; returns a float or a
    (T,) array accordingly.
    """
    x = np.asarray(x, dtype=float)
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
    n = net.n_oscillators
    gains = net.coupling_gains
    active = gains > 0.0
    if np.any(active):
        delta_m = float(gains[active].max() - gains[active].min())
    else:
        delta_m = 0.0
    lhs = float(
        np.sum(2.0 * gains[active] - (n - 2) * delta_m) * np.sin(abs(delta)) / n
    )
    rhs = float(
        np.sum(_edge_frequency_mismatch(net))
        + np.count_nonzero(~active) * (n - 2) * delta_m / n
    )
    side_ok = bool(np.all(gains[active] >= (n - 2) * delta_m / 2.0))
    return AttractingSetReport(
        satisfied=bool(lhs > rhs) and side_ok,
        margin=lhs - rhs,
        side_condition_ok=side_ok,
        lhs=lhs,
        rhs=rhs,
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


def _stays_in_box(net: OscillatorNetwork, theta: np.ndarray) -> np.ndarray:
    """Per column of node phases theta (N, m): every edge difference
    wrap(w_i - w_j) of the wrapped phases w = wrap(theta) lies in the open
    box |x| < pi/2. wrap_phase is idempotent, so stored (wrapped) phases
    give the same verdict as the unwrapped ones they came from.

    np.mod is fmod, which is exact, plus at most one rounded addition of
    2 pi, so each computed difference is theta_i - theta_j plus a multiple
    of 2 pi and a few 1e-16; as rounding is monotone, a column whose computed
    spread max - min of theta is below pi/2 - 1e-12 passes every pair, and
    only the other columns need the pairwise test.
    """
    ok = theta.max(axis=0) - theta.min(axis=0) < np.pi / 2 - 1e-12
    rest = ~ok
    if np.any(rest):
        w = wrap_phase(theta[:, rest].T)
        ok[rest] = np.all(np.abs(wrap_phase(_edge_diff(net, w))) < np.pi / 2, axis=1)
    return ok


def invariance_certificate(
    net: OscillatorNetwork,
    n_samples: int = 100,
    horizon: float = 50.0,
    dt: float = 0.01,
    margin: float = 0.1,
    seed: int | None = None,
    keep_trajectories: bool = False,
) -> InvarianceReport:
    """Monte-Carlo check that trajectories started in the invariant set
    stay there for the whole horizon.

    Initial phases are drawn exactly, at any N, uniformly from
    [-pi/2, pi/2]^N with spread below pi/2 - margin, so every edge
    difference starts in the box shrunk by ``margin`` (which must lie in
    [0, pi/2)). Gains below the per-edge sufficient thresholds are flagged
    (``bounds_met``) but the certificate still runs; escapes then show up
    as a fraction below one rather than an error.
    Along integrated trajectories the frequency differences satisfy the
    consistency identity by construction, and whenever the gain bounds are
    met the per-edge face inequality holds for every in-box state, so the
    per-step membership check reduces to confinement in the open box.

    Without ``keep_trajectories`` each RK4 step is judged as it is taken
    and only a per-sample verdict is kept, so memory is O(N n_samples)
    whatever the horizon; the whole batch is judged until a sample first
    escapes, and only the survivors after that. With it the trajectories
    are stored and judged by the same test.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_steps = _validate_grid(horizon, dt)
    rng = np.random.default_rng(seed)
    bounds_met = bool(np.all(net.coupling_gains >= sufficient_gain_bounds(net) - 1e-12))
    theta0s = _sample_box_states(net, n_samples, margin, rng)
    # stored steps are dense enough that an escaping difference is seen
    # near the box face before the wrap could alias it back inside
    if keep_trajectories:
        trajectories = simulate_many(net, theta0s, horizon, dt)
        stayed = np.array([_stays_in_box(net, t.thetas.T).all() for t in trajectories])
    else:
        trajectories = []
        stayed = np.ones(n_samples, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for _, theta, _ in _rk4_steps(_node_field(net), theta0s, n_steps, dt):
                if stayed.all():  # verdicts are per column: no gather needed yet
                    stayed = _stays_in_box(net, theta)
                else:
                    stayed[stayed] = _stays_in_box(net, theta[:, stayed])

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
        trajectories=trajectories,
    )
