"""Node-space oscillator dynamics, the edge-space transform, and
fixed-step trajectory integration.

The node equation is theta_dot_i = omega_i + sum_j (Ktilde_ij / N)
sin(theta_j - theta_i), in vector form omega - B K sin(B^T theta) with
K = diag(gains)/N. It is evaluated in O(N^2) as omega + c * (W s) - s * (W c)
with W = Ktilde/N and s, c = sin, cos(theta - theta_1). Edge coordinates are
X = B^T theta (phase differences) and V = B^T theta_dot (frequency
differences); in these coordinates the flow is Xdot = V,
Vdot = G(X) V with G(X) = -B^T B K diag(cos X).

Integration is classical fixed-step RK4 on unwrapped phases, run by one
driver that hands every step's batch of states and fields to a reducer:
``simulate_many`` stores them (stored phases are wrapped to (-pi, pi]),
while the invariance certificate keeps only a per-sample verdict, in
O(N m) memory.
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


def wrap_phase(x):
    """Wrap angles componentwise to the half-open interval (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    w = np.mod(x, 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)


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


def g_matrix(x, net: OscillatorNetwork) -> np.ndarray:
    """Edge-space flow matrix G(X) = -B^T B K diag(cos X)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n_edges,):
        raise ValueError(f"x must have shape ({net.n_edges},)")
    btb = net._b.T @ net._b
    return -btb * (net._k_diag * np.cos(x))[None, :]


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


def _validate_grid(theta0, net, t_end, dt):
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape[0] != net.n_oscillators:
        raise ValueError("theta0 has wrong length")
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 must be finite")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError("t_end must be at least dt")
    n_steps = int(round(t_end / dt))
    return theta0, max(n_steps, 1)


def _rk4_step(f, y, dt, k1):
    """One classical RK4 step; ``k1`` is f(y), already known to the caller."""
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(net, theta, n_steps, dt, reduce) -> int:
    """Fixed-step RK4 driver for a batch of states of shape (N, m).

    Calls ``reduce(k, theta_k, theta_dot_k)`` at every step k = 0, 1, ...,
    n_steps with the unwrapped phases and the field there, and stops early
    once it returns True; returns the last step taken. Each stored field is
    the next step's first stage. Raises DivergenceError naming the step if
    any state goes non-finite.
    """
    f = lambda th: theta_dot(th, net)
    td = f(theta)
    k = 0
    while not reduce(k, theta, td) and k < n_steps:
        k += 1
        theta = _rk4_step(f, theta, dt, td)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(step=k, time=k * dt)
        td = f(theta)
    return k


def simulate(
    net: OscillatorNetwork,
    theta0,
    t_end: float,
    dt: float = 0.01,
    *,
    stop_on_sync: bool = False,
    sync_tol: float = SYNC_TOL,
    sync_window: float = SYNC_WINDOW,
) -> Trajectory:
    """Integrate the network with classical RK4 at fixed step dt.

    Keeping dt below 0.1 / max(1, |omega|_inf + max gain) is recommended.
    With ``stop_on_sync`` the run ends early once the frequency spread
    max_i theta_dot_i - min_i theta_dot_i has stayed below ``sync_tol``
    for ``sync_window`` seconds of simulated time.
    """
    trajectories = simulate_many(
        net,
        np.asarray(theta0, dtype=float).reshape(net.n_oscillators, 1),
        t_end,
        dt,
        stop_on_sync=stop_on_sync,
        sync_tol=sync_tol,
        sync_window=sync_window,
    )
    return trajectories[0]


def simulate_many(
    net: OscillatorNetwork,
    theta0s,
    t_end: float,
    dt: float = 0.01,
    *,
    stop_on_sync: bool = False,
    sync_tol: float = SYNC_TOL,
    sync_window: float = SYNC_WINDOW,
) -> list[Trajectory]:
    """Integrate a batch of independent trajectories in lockstep.

    ``theta0s`` has shape (N, m), one column per trajectory. All runs share
    the time grid; with ``stop_on_sync`` the batch stops once every run has
    held a sustained sync window (runs keep their individual detection
    times). The RK4 driver hands each step to a reducer that stores it and
    keeps the sync-window counters. Raises DivergenceError naming the step
    if any state goes non-finite.
    """
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2:
        raise ValueError("theta0s must have shape (N, m)")
    theta0s, n_steps = _validate_grid(theta0s, net, t_end, dt)
    m = theta0s.shape[1]
    window_steps = max(1, int(round(sync_window / dt)))

    thetas = np.empty((n_steps + 1, net.n_oscillators, m))
    dots = np.empty_like(thetas)
    run = np.zeros(m, dtype=int)  # consecutive small-spread steps per run
    sync_step = np.full(m, -1, dtype=int)  # step index where the window began

    def store(k, theta, td):
        thetas[k] = theta
        dots[k] = td
        small = np.ptp(td, axis=0) < sync_tol
        run[~small] = 0
        run[small] += 1
        if k == 0:  # step 0 only seeds the counters; windows end on steps taken
            return False
        completed = (run >= window_steps) & (sync_step < 0)
        sync_step[completed] = k - window_steps + 1
        return stop_on_sync and bool(np.all(sync_step >= 0))

    last = _integrate(net, theta0s, n_steps, dt, store)

    times = np.arange(last + 1) * dt
    out = []
    for j in range(m):
        synced = sync_step[j] * dt if sync_step[j] >= 0 else None
        out.append(
            Trajectory(
                times=times,
                thetas=wrap_phase(thetas[: last + 1, :, j]),
                theta_dots=dots[: last + 1, :, j].copy(),
                synchronized_at=synced,
            )
        )
    return out


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
        g = -(net._b.T @ net._b)[0, 0] * net._k_diag[0] * np.cos(a)
        return np.column_stack([a, b_, b_, g * b_])

    i, j = reduced_coords
    if not (0 <= i < j <= 2):
        raise ValueError("reduced_coords must be a pair of distinct edge indices in 0..2")
    x = np.empty((3, a.size))
    x[i] = a
    x[j] = b_
    k = 3 - i - j  # the remaining edge coordinate
    # column space of B^T for N=3 is x3 = x2 - x1
    if k == 2:
        x[2] = x[1] - x[0]
    elif k == 1:
        x[1] = x[0] + x[2]
    else:
        x[0] = x[1] - x[2]
    btb = net._b.T @ net._b
    dx = (net._b.T @ net.natural_frequencies)[:, None] - btb @ (
        net._k_diag[:, None] * np.sin(x)
    )
    return np.column_stack([a, b_, dx[i], dx[j]])
