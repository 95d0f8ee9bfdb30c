"""Planar analysis of a pair of coupled oscillators.

State is x = (x1, x2) = (phase difference, frequency difference), with
field f(x) = (x2, -K x2 cos x1). The companion first-order form of the
phase difference alone is d(x1)/dt = delta_omega - K sin(x1); its K is
the raw pairwise gain of the two-oscillator network (the 1/N factors of
the node equation cancel against the two coupling terms).

The trapping region G is bounded above by K(1 - sin x1) and below by
-K(1 + sin x1) for x1 in (-pi/2, pi/2); trajectories cannot leave it.
Slope intervals bound the directions the field can take near an
equilibrium (a, 0), which is what the nontangency test inspects.
Trajectories use the network RK4 step generator, which raises DivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _finite_state, _rk4_steps, _validate_grid
from .errors import OutOfDomainError

__all__ = [
    "PlanarParams",
    "SlopeInterval",
    "GlobalSyncReport",
    "planar_field",
    "region_g_boundary",
    "in_region_g",
    "direction_cone_estimate",
    "nontangency_planar",
    "phase_locked_offset",
    "drift_region_fixed_point",
    "global_sync_verdict",
    "phase_difference_rate",
    "simulate_planar",
]

DEFAULT_CONE_EPS = 0.05
DRIFT_GRID = 100  # interior samples per drift-region half for the divergence minimum


@dataclass(frozen=True)
class PlanarParams:
    """Coupling gain K > 0 and frequency mismatch delta_omega, both rad/s."""

    k: float
    delta_omega: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("coupling gain k must be positive and finite")
        if not np.isfinite(self.delta_omega):
            raise ValueError("delta_omega must be finite")


@dataclass(frozen=True)
class SlopeInterval:
    """Closed interval [lo, hi] of slopes, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("slope interval needs lo <= hi")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def planar_field(x, p: PlanarParams) -> np.ndarray:
    """Field (x2, -K x2 cos x1); accepts a single (2,) state or an (m, 2) batch."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., 0] = x[..., 1]
    out[..., 1] = -p.k * x[..., 1] * np.cos(x[..., 0])
    return out


def region_g_boundary(x1: float, p: PlanarParams, side: str) -> float:
    """Frequency-difference bound of the trapping region at phase x1.

    ``side`` selects the upper boundary K(1 - sin x1) or the lower boundary
    -K(1 + sin x1). Only defined for x1 strictly inside (-pi/2, pi/2).
    """
    if not -np.pi / 2 < x1 < np.pi / 2:
        raise OutOfDomainError(f"x1 = {x1:g} outside (-pi/2, pi/2)")
    if side == "upper":
        return p.k * (1.0 - math.sin(x1))
    if side == "lower":
        return -p.k * (1.0 + math.sin(x1))
    raise ValueError("side must be 'upper' or 'lower'")


def in_region_g(x, p: PlanarParams) -> bool:
    """Membership in the trapping region: x1 bounds open, x2 bounds closed."""
    x1, x2 = float(x[0]), float(x[1])
    if not -np.pi / 2 < x1 < np.pi / 2:
        return False
    return -p.k * (1.0 + math.sin(x1)) <= x2 <= p.k * (1.0 - math.sin(x1))


def _validate_cone_inputs(a: float, eps: float):
    if not eps > 0:
        raise OutOfDomainError("eps must be positive")
    if not -np.pi / 2 < a < np.pi / 2:
        raise OutOfDomainError(f"a = {a:g} outside (-pi/2, pi/2)")
    if not abs(a) + eps < np.pi / 2:
        raise OutOfDomainError(f"|a| + eps = {abs(a) + eps:g} must stay below pi/2")


def direction_cone_estimate(a: float, eps: float, p: PlanarParams) -> SlopeInterval:
    """Slope interval of field directions near the equilibrium (a, 0).

    The bracket is {-K cos(a + eps), -K cos(a - eps)}, ordered; it is valid
    only while |a| + eps < pi/2, where the cosine keeps a fixed sign.
    """
    _validate_cone_inputs(a, eps)
    s1 = -p.k * math.cos(a + eps)
    s2 = -p.k * math.cos(a - eps)
    return SlopeInterval(lo=min(s1, s2), hi=max(s1, s2))


def nontangency_planar(a: float, eps: float, p: PlanarParams) -> bool:
    """True iff no direction near (a, 0) is parallel to the equilibrium line.

    The equilibrium set is the x1-axis, whose tangent directions are
    horizontal; the test asks whether the slope interval excludes zero.
    """
    return not direction_cone_estimate(a, eps, p).contains(0.0)


def phase_locked_offset(p: PlanarParams) -> float | None:
    """Stable phase-difference equilibrium arcsin(delta_omega / K), if locking occurs."""
    r = p.delta_omega / p.k
    if abs(r) > 1.0:
        return None
    return math.asin(r)


def drift_region_fixed_point(p: PlanarParams) -> float | None:
    """The companion equilibrium with |x1| > pi/2; unstable when it exists."""
    r = p.delta_omega / p.k
    if abs(r) > 1.0:
        return None
    if r >= 0.0:
        return math.pi - math.asin(r)
    return -math.pi - math.asin(r)


@dataclass(frozen=True)
class GlobalSyncReport:
    """Verdict of the synchronization dichotomy plus its supporting checks."""

    synchronizes: bool
    bendixson_min: float
    bendixson_positive: bool
    stable_fixed_point: float | None
    unstable_fixed_point: float | None


def global_sync_verdict(p: PlanarParams) -> GlobalSyncReport:
    """Decide |delta_omega| <= K and back it with a closed-orbit exclusion.

    Outside the half-circle |x1| <= pi/2 the field divergence is
    -K cos(x1) > 0, so no closed orbit fits there; the report carries the
    minimum of that divergence over an interior grid of the drift region.
    """
    # interior samples of (-pi, -pi/2) and (pi/2, pi]; endpoints excluded
    left = np.linspace(-np.pi, -np.pi / 2, DRIFT_GRID + 2)[1:-1]
    right = np.linspace(np.pi / 2, np.pi, DRIFT_GRID + 2)[1:-1]
    div = -p.k * np.cos(np.concatenate([left, right]))
    dmin = float(div.min())
    return GlobalSyncReport(
        synchronizes=abs(p.delta_omega) <= p.k,
        bendixson_min=dmin,
        bendixson_positive=dmin > 0.0,
        stable_fixed_point=phase_locked_offset(p),
        unstable_fixed_point=drift_region_fixed_point(p),
    )


def phase_difference_rate(dtheta, k, delta_omega):
    """First-order phase-difference rate delta_omega - K sin(dtheta).

    All arguments broadcast, so mixed sweeps over initial conditions and
    parameters evaluate in one call.
    """
    return np.asarray(delta_omega, dtype=float) - np.asarray(k, dtype=float) * np.sin(
        np.asarray(dtheta, dtype=float)
    )


def simulate_planar(p: PlanarParams, x0, t_end: float, dt: float = 0.01):
    """RK4 trajectory of the planar field from x0, one state per row.

    ``x0`` is (2,) or (m, 2); returns (times, states) with states of shape
    (T, 2) or (T, m, 2). Raises ValueError for a non-finite x0, dt or t_end
    and DivergenceError naming the step if a state goes non-finite.
    """
    x0 = _finite_state(x0)
    n_steps = _validate_grid(t_end, dt)
    out = np.empty((n_steps + 1,) + x0.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x, _ in _rk4_steps(lambda x: planar_field(x, p), x0, n_steps, dt):
            out[k] = x
    return np.arange(n_steps + 1) * dt, out
