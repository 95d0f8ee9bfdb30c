"""Node-space oscillator dynamics, the edge-space transform, and
fixed-step trajectory integration.

The node equation is theta_dot_i = omega_i + sum_j (Ktilde_ij / N)
sin(theta_j - theta_i), in vector form omega - B K sin(B^T theta) with
K = diag(gains)/N. It is evaluated in O(N^2) as omega + c * (W s) - s * (W c)
with W = Ktilde/N and s, c = sin, cos(theta - theta_1). Edge coordinates are
X = B^T theta (phase differences) and V = B^T theta_dot (frequency
differences); in these coordinates the flow is Xdot = V,
Vdot = G(X) V with G(X) = -B^T B K diag(cos X). B^T z (``_edge_diff``) and
B^T B y (``_btb``) are edge products of ``network``, so no code here reads
the edge order or the dense incidence.

Integration is classical fixed-step RK4 of the node flow, run by one
generator that yields each step's state and field on demand and raises
DivergenceError on a non-finite state; its consumers are loops.
``simulate_many`` keeps phases and fields in one store, so every step is
held once: a batch that can stop early grows it by doubling in place and
cuts it to the steps taken, any other batch allocates every step at once.
It wraps the phases to (-pi, pi] once and counts sync windows in its loop
on one schedule, a batch that cannot stop early once; beside the store it
holds only block-sized temporaries. Every blocked pass, here and in the
writers and the certificate, takes its rows from ``_row_slices``.
The invariance certificate keeps only a per-sample verdict, read off the
spread of its unwrapped phases, in O(N m) memory even as samples escape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import OscillatorNetwork, _btb, _edge_diff, _unframe, _vector

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
# Values taken at once by a blocked pass (the wrap here, the CSV and JSON
# writers in ``tables``, the certificate's gain check), and stored values
# (steps x runs) counted at once: each bounds the working arrays beside the
# stored batch (the wrap's mask, the writers' text, the counter's (rows, m)
# temporaries) whatever the horizon.
_BLOCK_VALUES = 2048
_SYNC_VALUES = 512


def _row_slices(n_rows: int, row_values: int, budget: int = _BLOCK_VALUES):
    """Slices tiling range(n_rows) in order, each of at most
    max(1, budget // row_values) rows of ``row_values`` values."""
    step = max(1, budget // max(1, row_values))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    """Wrap the float array ``a`` to (-pi, pi] in place and return it, one
    block of ``_row_slices`` at a time; a 0-d array is one row."""
    rows = a if a.ndim else a[None]
    for block in map(rows.__getitem__, _row_slices(len(rows), rows[:1].size)):
        np.mod(block, 2.0 * np.pi, out=block)
        np.subtract(block, 2.0 * np.pi, out=block, where=block > np.pi)
    return a


def wrap_phase(x):
    """Wrap angles componentwise to the half-open interval (-pi, pi]; a
    non-finite angle has no wrap and raises ValueError."""
    a = np.array(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("x must be finite")
    return _wrap_in_place(a)


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
    if not 0 < theta.ndim < 3:
        raise ValueError(f"theta must have 1 or 2 dimensions, got {theta.ndim}")
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
    unwrapped, +-inf past the float range. V = 0 exactly when all node rates
    agree. An input not of shape (N,) or not finite, or a phase difference X
    past the float range, raises ValueError.
    """
    z = [_vector(a, net.n_oscillators, "theta and theta_dot") for a in (theta, theta_dot_vec)]
    with np.errstate(over="ignore"):
        x, v = _edge_diff(net, np.array(z))
    if not np.isfinite(x).all():
        raise ValueError("theta has a phase difference beyond the float range")
    return EdgeState(x=_wrap_in_place(x), v=v)


def _edge_field(net: OscillatorNetwork, x: np.ndarray) -> np.ndarray:
    """First-order edge field B^T omega - B^T B K sin(X) (edge index last),
    computed in the network's frame s (``_frame``): a value beyond the
    float range is +-inf, never NaN."""
    s = net._frame
    field = _edge_diff(net, net.natural_frequencies / s)
    return _unframe(s, field - _btb(net, (net.coupling_diag / s) * np.sin(x)))


def g_matrix(x, net: OscillatorNetwork) -> np.ndarray:
    """Edge-space flow matrix G(X) = -B^T B K diag(cos X).

    Dense e x e: 196 MB at N = 100 and 3.2 GB at N = 200. No library path
    forms it.
    """
    x = _vector(x, net.n_edges, "x")
    # B^T B applied row by row to diag(d) gives diag(d) B^T B = (B^T B diag(d))^T
    return -_btb(net, np.diag(net.coupling_diag * np.cos(x))).T


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
        return _wrap_in_place(_edge_diff(net, self.thetas))  # a fresh array

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
    steps = float(t_end) / float(dt)
    if not np.isfinite(steps):
        raise ValueError("t_end / dt must be finite")
    return max(int(round(steps)), 1)


def _rk4_steps(net: OscillatorNetwork, y, n_steps, dt):
    """Classical fixed-step RK4 for the node field of ``net``.

    Yields ``(k, y_k, theta_dot(y_k))`` for k = 0, 1, ..., n_steps, each
    field value being the next step's first stage k1; a step is computed
    only when the consumer asks for it, so a loop that breaks costs nothing
    further. ``theta_dot`` is looked up at each call, so a tracer that
    replaces it sees every evaluation. Raises DivergenceError naming the
    step if any state goes non-finite; consumers loop under
    np.errstate(over="ignore", invalid="ignore") so it is the only signal
    (set in here, a ``yield`` would leak it out).
    """
    k1 = theta_dot(y, net)
    yield 0, y, k1
    for step in range(1, n_steps + 1):
        k2 = theta_dot(y + 0.5 * dt * k1, net)
        k3 = theta_dot(y + 0.5 * dt * k2, net)
        k4 = theta_dot(y + dt * k3, net)
        # each stage scaled before the sum, which stays finite while the step is
        y = y + (dt / 6.0) * k1 + (dt / 3.0) * k2 + (dt / 3.0) * k3 + (dt / 6.0) * k4
        if not np.isfinite(y).all():
            raise DivergenceError(step=step, time=step * dt)
        k1 = theta_dot(y, net)
        yield step, y, k1


def _count_sync(dots, start, run, sync_step, window_steps):
    """Advance the counters in place over the fields ``dots`` (T, N, m) of
    steps start, start + 1, ...: ``run`` counts each run's consecutive steps
    of spread below SYNC_TOL, and an open run (sync_step < 0) whose count
    first reaches the window at a step k >= 1 gets k - window_steps + 1.
    The steps are taken in sub-blocks of at most ``_SYNC_VALUES`` values of
    (steps x runs), each carrying the counts on from the one before."""
    for rows in _row_slices(len(dots), len(run), _SYNC_VALUES):
        small = np.ptp(dots[rows], axis=1) < SYNC_TOL
        t = np.arange(len(small))[:, None]
        # the last large-spread row so far, or a virtual one run steps before
        runs = t - np.maximum.accumulate(np.where(small, -1 - run, t), axis=0)
        full = runs >= window_steps
        full[0] &= start + rows.start > 0  # step 0 only seeds the counts
        new = full.any(axis=0) & (sync_step < 0)
        sync_step[new] = start + rows.start + full.argmax(axis=0)[new] - window_steps + 1
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

    The field's Jacobian is -L(K cos X), and lambda_max(L(K cos X)) <=
    lambda_max(L(K)) at every state, with L(K) the weighted Laplacian of
    the normalized coupling Ktilde/N. Classical RK4 is stable on the
    negative real axis only for dt * lambda_max(L(K)) <= 2.785; past that
    limit a run can oscillate spuriously without diverging. Since
    lambda_max(L(K)) <= 2 s_max, with s_max = max_i sum_j Ktilde_ij / N the
    largest node strength, dt <= 1.39 / s_max always stays within it.
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
    times). Phases and fields share one (T, 2, N, m) store, which the
    trajectories view. Without ``stop_on_sync`` it holds every step from the
    start, so a horizon too long to store raises MemoryError before the
    first step. With it, its steps start at 256 rows, double in place
    (``ndarray.resize``) when full and are cut in place to the steps taken;
    it is copied instead where a tracer's ``frame.f_locals`` holds it too.
    Every batch counts its sync windows in the loop, on one schedule: first
    at step 0 with ``stop_on_sync``, else at the last step; then at the first
    step where the open run furthest from a full window could complete, at
    the latest the last step. Each count covers the steps since the one
    before, so a run that completed in between is dated at its own step.
    Raises DivergenceError naming the step if a state goes non-finite.
    """
    theta0s = np.asarray(theta0s, dtype=float)
    if theta0s.ndim != 2 or theta0s.shape[0] != net.n_oscillators or not theta0s.size:
        raise ValueError(f"theta0s must have shape ({net.n_oscillators}, m), m >= 1")
    theta0s = _finite_state(theta0s)
    n_steps = _validate_grid(t_end, dt)
    m = theta0s.shape[1]
    # a window longer than the run never completes, so capping it keeps every verdict
    window_steps = max(1, int(round(min(SYNC_WINDOW / dt, n_steps + 2))))

    counted = 0  # steps counted so far
    check = 0 if stop_on_sync else n_steps  # next step to count up to
    # steps on axis 0, so a resize keeps each step's phases and fields together
    store = np.empty((min(max(check + 1, 256), n_steps + 1), 2, net.n_oscillators, m))
    run = np.zeros(m, dtype=int)  # consecutive small-spread steps per run
    sync_step = np.full(m, -1, dtype=int)  # step index where the window began

    def resize_store(rows):  # the closure's cell is the store's only holder
        nonlocal store
        shape = (rows,) + store.shape[1:]
        try:
            store.resize(shape)
        except ValueError:  # a tracer's frame.f_locals also holds the store
            store = np.resize(store[:rows], shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for k, theta, td in _rk4_steps(net, theta0s, n_steps, dt):
            if k == len(store):  # the store is full: double it
                resize_store(min(2 * k, n_steps + 1))
            store[k, 0] = theta
            store[k, 1] = td
            if k < check:  # counting now could not stop the batch
                continue
            # a field spread past the float range counts as out of sync, quietly
            _count_sync(store[counted : k + 1, 1], counted, run, sync_step, window_steps)
            counted = k + 1
            open_ = sync_step < 0
            if not open_.any():
                break
            # the batch stops no sooner than its furthest open run can complete
            check = min(k + max(1, (window_steps - run[open_]).max()), n_steps)
    resize_store(k + 1)  # stopped early: keep only the steps taken
    _wrap_in_place(store[:, 0])
    times = np.arange(k + 1) * dt
    return [
        Trajectory(
            times=times,
            thetas=store[:, 0, :, j],
            theta_dots=store[:, 1, :, j],
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
    reduction. Every range end, range width and (N = 3) corner x2 - x1 must
    be finite.
    """
    n = net.n_oscillators
    if n > 3:
        raise ValueError("vector_field_grid supports only 2- or 3-oscillator networks")
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    if not np.isfinite([*x1_range, *x2_range]).all():
        raise ValueError("grid ranges must be finite")
    with np.errstate(over="ignore"):  # a span past the float range reads inf
        corners = np.subtract.outer(x2_range, x1_range) if n == 3 else 0.0  # x3 = x2 - x1
        if not np.isfinite([np.ptp(x1_range), np.ptp(x2_range), *np.ravel(corners)]).all():
            raise ValueError("grid range widths (and x3 = x2 - x1 at N = 3) must be finite")
    xs = np.linspace(x1_range[0], x1_range[1], resolution)
    ys = np.linspace(x2_range[0], x2_range[1], resolution)
    a, b_ = np.meshgrid(xs, ys, indexing="ij")
    a = a.ravel()
    b_ = b_.ravel()

    if n == 2:
        # G(x) = -(B^T B) K cos x with B^T B = [[2]] and K = gain / 2, so
        # -2 K cos x is finite; a product past the float range is the +-inf
        # it stands for, never a NaN
        with np.errstate(over="ignore"):
            dv = -2.0 * (net.coupling_diag * np.cos(a)) * b_
        return np.column_stack([a, b_, b_, dv])

    # edges (1,2), (1,3), (2,3): x3 = theta_2 - theta_3 = x2 - x1
    dx = _edge_field(net, np.column_stack([a, b_, b_ - a]))
    return np.column_stack([a, b_, dx[:, 0], dx[:, 1]])
