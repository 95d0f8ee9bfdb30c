"""Node-space oscillator dynamics, the edge-space transform, and
fixed-step trajectory integration.

The node equation is theta_dot_i = omega_i + sum_j (Ktilde_ij / N)
sin(theta_j - theta_i), in vector form omega - B K sin(B^T theta) with
K = diag(gains)/N. It is evaluated in O(N^2) as omega + c * (W s) - s * (W c)
with W = Ktilde/N and s, c = sin, cos(theta - theta_1). Edge coordinates are
X = B^T theta (phase differences) and V = B^T theta_dot (frequency
differences); in these coordinates the flow is Xdot = V,
Vdot = G(X) V with G(X) = -B^T B K diag(cos X). Products with B^T and B^T B
go through the edge ends, never through the dense incidence.

Integration is classical fixed-step RK4, run for every flow (node and
planar) by one driver that hands every step's states and fields to a
reducer and raises DivergenceError on a non-finite state: ``simulate_many``
stores the batch and wraps it to (-pi, pi] once, while the invariance
certificate keeps only a per-sample verdict, in O(N m) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import OscillatorNetwork

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


def edge_transform(theta, theta_dot_vec, b) -> EdgeState:
    """Map node phases and frequencies to edge coordinates.

    X = B^T theta wrapped componentwise to (-pi, pi]; V = B^T theta_dot,
    unwrapped. V = 0 exactly when all node frequencies agree.
    """
    b = np.asarray(b, dtype=float)
    x = wrap_phase(b.T @ np.asarray(theta, dtype=float))
    v = b.T @ np.asarray(theta_dot_vec, dtype=float)
    return EdgeState(x=x, v=v)


def _edge_diff(net: OscillatorNetwork, z: np.ndarray) -> np.ndarray:
    """B^T z: per edge (i, j), z_i - z_j (node index last)."""
    i, j = net._ends
    return z.take(i, axis=-1) - z.take(j, axis=-1)


def _apply_edge_laplacian(net: OscillatorNetwork, y: np.ndarray) -> np.ndarray:
    """B^T B y for edge values y (edge index last), through the edge ends:
    the node sums B y are two bincounts, offset so one call covers all rows."""
    i, j = net._ends
    n = net.n_oscillators
    rows = y.reshape(-1, y.shape[-1])
    size = len(rows) * n
    at = n * np.arange(len(rows))[:, None]
    by = np.bincount((at + i).ravel(), rows.ravel(), size) - np.bincount(
        (at + j).ravel(), rows.ravel(), size
    )
    return _edge_diff(net, by.reshape(y.shape[:-1] + (n,)))


def _edge_field(net: OscillatorNetwork, x: np.ndarray) -> np.ndarray:
    """First-order edge field B^T omega - B^T B K sin(X) (edge index last)."""
    return _edge_diff(net, net.natural_frequencies) - _apply_edge_laplacian(
        net, net._k_diag * np.sin(x)
    )


def g_matrix(x, net: OscillatorNetwork) -> np.ndarray:
    """Edge-space flow matrix G(X) = -B^T B K diag(cos X)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_edges,):
        raise ValueError(f"x must have shape ({net.n_edges},)")
    # B^T B applied row by row to diag(d) gives diag(d) B^T B = (B^T B diag(d))^T
    return -_apply_edge_laplacian(net, np.diag(net._k_diag * np.cos(x))).T


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


def _rk4_step(f, y, dt, k1):
    """One classical RK4 step; ``k1`` is f(y), already known to the caller."""
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(f, y, n_steps, dt, reduce) -> int:
    """Fixed-step RK4 driver for the autonomous field ``f``.

    Calls ``reduce(k, y_k, f(y_k))`` at steps k = 0, 1, ..., n_steps, each
    field value being the next step's first stage, and returns the last step
    taken, stopping early once ``reduce`` returns True. Raises
    DivergenceError naming the step if any state goes non-finite.
    """
    fy = f(y)
    k = 0
    while not reduce(k, y, fy) and k < n_steps:
        k += 1
        y = _rk4_step(f, y, dt, fy)
        if not np.isfinite(y).all():
            raise DivergenceError(step=k, time=k * dt)
        fy = f(y)
    return k


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
    trajectories = simulate_many(
        net,
        np.asarray(theta0, dtype=float).reshape(net.n_oscillators, 1),
        t_end,
        dt,
        stop_on_sync=stop_on_sync,
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
    times). A reducer on the RK4 driver stores each step and keeps the
    sync-window counters; the trajectories view columns of the one stored
    batch. Raises DivergenceError naming the step if a state goes non-finite.
    """
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2 or theta0s.shape[0] != net.n_oscillators:
        raise ValueError(f"theta0s must have shape ({net.n_oscillators}, m)")
    theta0s = _finite_state(theta0s)
    n_steps = _validate_grid(t_end, dt)
    m = theta0s.shape[1]
    window_steps = max(1, int(round(SYNC_WINDOW / dt)))

    thetas = np.empty((n_steps + 1, net.n_oscillators, m))
    dots = np.empty_like(thetas)
    run = np.zeros(m, dtype=int)  # consecutive small-spread steps per run
    sync_step = np.full(m, -1, dtype=int)  # step index where the window began

    def store(k, theta, td):
        thetas[k] = theta
        dots[k] = td
        small = np.ptp(td, axis=0) < SYNC_TOL
        run[~small] = 0
        run[small] += 1
        if k == 0:  # step 0 only seeds the counters; windows end on steps taken
            return False
        completed = (run >= window_steps) & (sync_step < 0)
        sync_step[completed] = k - window_steps + 1
        return stop_on_sync and bool(np.all(sync_step >= 0))

    last = _integrate(_node_field(net), theta0s, n_steps, dt, store)

    if last < n_steps:  # stopped early: keep only the steps taken
        thetas, dots = thetas[: last + 1].copy(), dots[: last + 1].copy()
    thetas = _wrap_in_place(thetas)
    times = np.arange(last + 1) * dt
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
    reduced_coords: tuple[int, int] = (0, 1),
    x1_range: tuple[float, float] = (-np.pi, np.pi),
    x2_range: tuple[float, float] = (-np.pi, np.pi),
    resolution: int = 21,
) -> np.ndarray:
    """Sample the planar reduced phase-difference dynamics on a grid.

    Returns rows (x1, x2, dx1, dx2), x1 varying slowest. For two
    oscillators the plane is the edge state (x, v) with field
    (v, G(x) v); for three it is the pair of edge coordinates named by
    ``reduced_coords`` with the third resolved through x3 = x2 - x1 and
    the first-order field Xdot = B^T omega - B^T B K sin(X). Larger
    networks have no planar reduction.
    """
    n = net.n_oscillators
    if n > 3:
        raise ValueError("vector_field_grid supports only 2- or 3-oscillator networks")
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    xs = np.linspace(x1_range[0], x1_range[1], resolution)
    ys = np.linspace(x2_range[0], x2_range[1], resolution)
    a, b_ = np.meshgrid(xs, ys, indexing="ij")
    a = a.ravel()
    b_ = b_.ravel()

    if n == 2:
        # G(x) = -(B^T B) K cos x with B^T B = [[2]]
        return np.column_stack([a, b_, b_, -2.0 * net._k_diag[0] * np.cos(a) * b_])

    i, j = reduced_coords
    if not (0 <= i < j <= 2):
        raise ValueError("reduced_coords must be a pair of distinct edge indices in 0..2")
    # the column space of B^T for N = 3 is the cycle s.X = x1 - x2 + x3 = 0,
    # so the remaining coordinate is x_k = -s_k s_i x_i - s_k s_j x_j
    s = np.array([1.0, -1.0, 1.0])
    k = 3 - i - j
    x = np.empty((a.size, 3))
    x[:, i] = a
    x[:, j] = b_
    x[:, k] = (-s[k] * s[i]) * a + (-s[k] * s[j]) * b_
    dx = _edge_field(net, x)
    return np.column_stack([a, b_, dx[:, i], dx[:, j]])
