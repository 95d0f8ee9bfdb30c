"""Node-space oscillator dynamics, the edge-space transform, and
fixed-step trajectory integration.

The node equation is theta_dot_i = omega_i + sum_j (Ktilde_ij / N)
sin(theta_j - theta_i), in vector form omega - B K sin(B^T theta) with
K = diag(gains)/N. It is evaluated in O(N^2) as omega + c * (W s) - s * (W c)
with W = Ktilde/N and s, c = sin, cos(theta - theta_1). Edge coordinates are
X = B^T theta (phase differences) and V = B^T theta_dot (frequency
differences); in these coordinates the flow is Xdot = V,
Vdot = G(X) V with G(X) = -B^T B K diag(cos X). B^T B y is the edge
difference ``_edge_diff`` of the node sums ``_node_sums``, edge products of
``network``, so no code here reads the edge order or the dense incidence.

Integration is classical fixed-step RK4, run for every flow (node and
planar) by one generator that yields each step's state and field on demand
and raises DivergenceError on a non-finite state; its consumers are loops.
``simulate_many`` stores the batch and wraps it to (-pi, pi] once, counting
sync windows over blocks of stored steps rather than at every step, while the
invariance certificate keeps only a per-sample verdict, in O(N m) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import OscillatorNetwork, _edge_diff, _node_sums

__all__ = [
    "EdgeState",
    "Trajectory",
    "wrap_phase",
    "theta_dot",
    "edge_transform",
    "g_matrix",
    "simulate",
    "simulate_many",
    "vector_field_grid",
]

SYNC_TOL = 1e-6
SYNC_WINDOW = 1.0  # seconds of sustained small frequency spread


def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    """Wrap the float array ``a`` to (-pi, pi] in place and return it."""
    np.mod(a, 2.0 * np.pi, out=a)
    np.subtract(a, 2.0 * np.pi, out=a, where=a > np.pi)
    return a


def wrap_phase(x):
    """Wrap angles componentwise to the half-open interval (-pi, pi]."""
    return _wrap_in_place(np.array(x, dtype=float))


@dataclass(frozen=True)
class EdgeState:
    """Phase differences x and frequency differences v in edge coordinates."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise ValueError("x and v must be 1-D arrays of equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)


def theta_dot(theta, net: OscillatorNetwork) -> np.ndarray:
    """Instantaneous node frequencies omega - B K sin(B^T theta).

    Evaluated in O(N^2) as omega + c * (W s) - s * (W c), W = Ktilde/N,
    s, c = sin, cos(theta - theta_1); rotating by theta_1 makes identical
    phases give omega exactly. ``theta`` may be a single state of shape (N,)
    or a batch of states of shape (N, m); the result has the same shape.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != net.n_oscillators:
        raise ValueError(
            f"theta has leading dimension {theta.shape[0]}, "
            f"expected {net.n_oscillators}"
        )
    d = theta - theta[0]
    s, c = np.sin(d), np.cos(d)
    # in place and ndarray.dot: at small N the per-call overhead dominates
    out = c * net._w.dot(s)
    out -= s * net._w.dot(c)
    omega = net.natural_frequencies
    out += omega if theta.ndim == 1 else omega[:, None]
    return out


def edge_transform(theta, theta_dot_vec, net: OscillatorNetwork) -> EdgeState:
    """Map node phases and frequencies to edge coordinates.

    X = B^T theta wrapped componentwise to (-pi, pi]; V = B^T theta_dot,
    unwrapped. V = 0 exactly when all node frequencies agree.
    """
    z = np.array([theta, theta_dot_vec], dtype=float)
    if z.shape != (2, net.n_oscillators):
        raise ValueError(f"theta and theta_dot must have shape ({net.n_oscillators},)")
    x, v = _edge_diff(net, z)
    return EdgeState(x=_wrap_in_place(x), v=v)


def _edge_field(net: OscillatorNetwork, x: np.ndarray) -> np.ndarray:
    """First-order edge field B^T omega - B^T B K sin(X) (edge index last);
    a frequency difference beyond the float range is inf."""
    with np.errstate(over="ignore"):
        b_omega = _edge_diff(net, net.natural_frequencies)
    return b_omega - _edge_diff(net, _node_sums(net, net._k_diag * np.sin(x)))


def _edge_vector(net: OscillatorNetwork, x, name: str = "x") -> np.ndarray:
    """``x`` as a float array of shape (e,) with finite entries, or ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_edges,):
        raise ValueError(f"{name} must have shape ({net.n_edges},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def g_matrix(x, net: OscillatorNetwork) -> np.ndarray:
    """Edge-space flow matrix G(X) = -B^T B K diag(cos X)."""
    x = _edge_vector(net, x)
    # B^T B applied row by row to diag(d) gives diag(d) B^T B = (B^T B diag(d))^T
    return -_edge_diff(net, _node_sums(net, np.diag(net._k_diag * np.cos(x)))).T


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory of node phases and frequencies.

    ``thetas`` holds phases wrapped to (-pi, pi]; ``theta_dots`` holds the
    field re-evaluated at each stored state, so the ODE residual at stored
    points is zero by construction. ``synchronized_at`` is the start of the
    first window over which the frequency spread stayed below the detection
    threshold, or None if none occurred before the trajectory ended.
    """

    times: np.ndarray
    thetas: np.ndarray
    theta_dots: np.ndarray
    synchronized_at: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def edge_x(self, net: OscillatorNetwork) -> np.ndarray:
        """Wrapped edge phase differences at each stored time, shape (T, e)."""
        return wrap_phase(_edge_diff(net, self.thetas))

    def edge_v(self, net: OscillatorNetwork) -> np.ndarray:
        """Edge frequency differences at each stored time, shape (T, e)."""
        return _edge_diff(net, self.theta_dots)


def _finite_state(y0) -> np.ndarray:
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise ValueError("initial state must be finite")
    return y0


def _validate_grid(t_end, dt) -> int:
    """Number of steps of size dt covering [0, t_end], at least one."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError("t_end must be finite and at least dt")
    return max(int(round(t_end / dt)), 1)


def _node_field(net: OscillatorNetwork):
    """theta -> theta_dot(theta, net), looking ``theta_dot`` up at each call."""
    return lambda theta: theta_dot(theta, net)


def _rk4_steps(f, y, n_steps, dt):
    """Classical fixed-step RK4 for the autonomous field ``f``.

    Yields ``(k, y_k, f(y_k))`` for k = 0, 1, ..., n_steps, each field value
    being the next step's first stage k1; a step is computed only when the
    consumer asks for it, so a loop that breaks costs nothing further.
    Raises DivergenceError naming the step if any state goes non-finite;
    consumers loop under np.errstate(over="ignore", invalid="ignore") so it
    is the only signal (set in here, a ``yield`` would leak it out).
    """
    k1 = f(y)
    yield 0, y, k1
    for step in range(1, n_steps + 1):
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise DivergenceError(step=step, time=step * dt)
        k1 = f(y)
        yield step, y, k1


def _count_sync(dots, start, run, sync_step, window_steps):
    """Advance the counters in place over the fields ``dots`` (T, N, m) of
    steps start, start + 1, ...: ``run`` counts each run's consecutive steps
    of spread below SYNC_TOL, and an open run (sync_step < 0) whose count
    first reaches the window at a step k >= 1 gets k - window_steps + 1."""
    small = np.ptp(dots, axis=1) < SYNC_TOL
    t = np.arange(len(small))[:, None]
    # the last large-spread row so far, or a virtual one run steps before start
    runs = t - np.maximum.accumulate(np.where(small, -1 - run, t), axis=0)
    full = runs >= window_steps
    full[0] &= start > 0  # step 0 only seeds the counts
    new = full.any(axis=0) & (sync_step < 0)
    sync_step[new] = start + full.argmax(axis=0)[new] - window_steps + 1
    run[:] = runs[-1]


def simulate(
    net: OscillatorNetwork,
    theta0,
    t_end: float,
    dt: float = 0.01,
    *,
    stop_on_sync: bool = False,
) -> Trajectory:
    """Integrate the network with classical RK4 at fixed step dt.

    Keeping dt below 0.1 / max(1, |omega|_inf + max gain) is recommended.
    With ``stop_on_sync`` the run ends early once the frequency spread
    max_i theta_dot_i - min_i theta_dot_i has stayed below ``SYNC_TOL``
    for ``SYNC_WINDOW`` seconds of simulated time.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (net.n_oscillators,):
        raise ValueError(f"theta0 must have shape ({net.n_oscillators},)")
    trajectories = simulate_many(
        net, theta0[:, None], t_end, dt, stop_on_sync=stop_on_sync
    )
    return trajectories[0]


def simulate_many(
    net: OscillatorNetwork,
    theta0s,
    t_end: float,
    dt: float = 0.01,
    *,
    stop_on_sync: bool = False,
) -> list[Trajectory]:
    """Integrate a batch of independent trajectories in lockstep.

    ``theta0s`` has shape (N, m), one column per trajectory. All runs share
    the time grid; with ``stop_on_sync`` the batch stops once every run has
    held a sustained sync window (runs keep their individual detection
    times). An early-stopping batch is stored in rows that start small and
    double when full, and it keeps only the steps taken. The trajectories
    view columns of the one stored batch.
    The sync-window counters run over blocks of at most one window of
    stored steps: at step 0, then only at the first step where the open run
    furthest from a full window could complete, and at the last step, so a
    run that completed in between is still dated at its own step.
    Raises DivergenceError naming the step if a state goes non-finite.
    """
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2 or theta0s.shape[0] != net.n_oscillators or not theta0s.size:
        raise ValueError(f"theta0s must have shape ({net.n_oscillators}, m), m >= 1")
    theta0s = _finite_state(theta0s)
    n_steps = _validate_grid(t_end, dt)
    m = theta0s.shape[1]
    window_steps = max(1, int(round(SYNC_WINDOW / dt)))

    rows = min(n_steps + 1, 256) if stop_on_sync else n_steps + 1
    thetas = np.empty((rows, net.n_oscillators, m))
    dots = np.empty_like(thetas)
    run = np.zeros(m, dtype=int)  # consecutive small-spread steps per run
    sync_step = np.full(m, -1, dtype=int)  # step index where the window began
    counted = check = 0  # steps counted so far; next step to count up to

    with np.errstate(over="ignore", invalid="ignore"):
        for k, theta, td in _rk4_steps(_node_field(net), theta0s, n_steps, dt):
            if k == len(thetas):  # the early-stopping store is full: double it
                more = min(k, n_steps + 1 - k)
                thetas = np.concatenate([thetas, np.empty_like(thetas[:more])])
                dots = np.concatenate([dots, np.empty_like(dots[:more])])
            thetas[k] = theta
            dots[k] = td
            if k != min(check, n_steps):  # counting now could not change the answer
                continue
            _count_sync(dots[counted : k + 1], counted, run, sync_step, window_steps)
            counted = k + 1
            open_ = sync_step < 0
            if k > 0 and not open_.any():
                if stop_on_sync:
                    break
                check = -1  # every run has synchronized: nothing left to count
            else:  # the batch stops no sooner than its furthest open run can complete
                check = k + max(1, (window_steps - run[open_]).max(initial=0))

    if k + 1 < len(thetas):  # stopped early: keep only the steps taken
        thetas, dots = thetas[: k + 1].copy(), dots[: k + 1].copy()
    thetas = _wrap_in_place(thetas)
    times = np.arange(k + 1) * dt
    return [
        Trajectory(
            times=times,
            thetas=thetas[:, :, j],
            theta_dots=dots[:, :, j],
            synchronized_at=sync_step[j] * dt if sync_step[j] >= 0 else None,
        )
        for j in range(m)
    ]


def vector_field_grid(
    net: OscillatorNetwork,
    x1_range: tuple[float, float] = (-np.pi, np.pi),
    x2_range: tuple[float, float] = (-np.pi, np.pi),
    resolution: int = 21,
) -> np.ndarray:
    """Sample the planar reduced phase-difference dynamics on a grid.

    Returns rows (x1, x2, dx1, dx2), x1 varying slowest. For two
    oscillators the plane is the edge state (x, v) with field
    (v, G(x) v); for three it is the first two edge coordinates, with the
    third resolved through x3 = x2 - x1 and the first-order field
    Xdot = B^T omega - B^T B K sin(X). Larger networks have no planar
    reduction. Every range end must be finite.
    """
    n = net.n_oscillators
    if n > 3:
        raise ValueError("vector_field_grid supports only 2- or 3-oscillator networks")
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    if not np.isfinite([*x1_range, *x2_range]).all():
        raise ValueError("grid ranges must be finite")
    xs = np.linspace(x1_range[0], x1_range[1], resolution)
    ys = np.linspace(x2_range[0], x2_range[1], resolution)
    a, b_ = np.meshgrid(xs, ys, indexing="ij")
    a = a.ravel()
    b_ = b_.ravel()

    if n == 2:
        # G(x) = -(B^T B) K cos x with B^T B = [[2]]
        return np.column_stack([a, b_, b_, -2.0 * net._k_diag[0] * np.cos(a) * b_])

    # edges (1,2), (1,3), (2,3): x3 = theta_2 - theta_3 = x2 - x1
    dx = _edge_field(net, np.column_stack([a, b_, b_ - a]))
    return np.column_stack([a, b_, dx[:, 0], dx[:, 1]])
