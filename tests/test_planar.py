"""Two-oscillator planar analysis: trapping region, cones, dichotomy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaselock import (
    DivergenceError,
    OscillatorNetwork,
    OutOfDomainError,
    PlanarParams,
    direction_cone_estimate,
    drift_region_fixed_point,
    global_sync_verdict,
    in_region_g,
    nontangency_planar,
    phase_difference_rate,
    phase_locked_offset,
    planar_field,
    region_g_boundary,
    simulate,
    simulate_planar,
    wrap_phase,
)

P1 = PlanarParams(k=1.0, delta_omega=0.0)


def sample_region_states(p, n, rng, x2_band=1.0):
    """Uniform draws from the trapping region; x2_band < 1 shrinks toward
    the interior of the closed frequency interval."""
    x1 = rng.uniform(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, n)
    lower = -p.k * (1 + np.sin(x1))
    upper = p.k * (1 - np.sin(x1))
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower) * x2_band
    x2 = mid + rng.uniform(-1.0, 1.0, n) * half
    return np.column_stack([x1, x2])


def test_params_validation():
    with pytest.raises(ValueError):
        PlanarParams(k=0.0, delta_omega=1.0)
    with pytest.raises(ValueError):
        PlanarParams(k=-1.0, delta_omega=1.0)


def test_field_vanishes_on_equilibrium_line():
    for a in (-1.2, -0.3, 0.0, 0.7, 1.5, 3.0):
        assert np.array_equal(planar_field((a, 0.0), P1), np.zeros(2))


def test_field_hand_value():
    assert planar_field((0.0, 1.0), P1) == pytest.approx([1.0, -1.0], abs=1e-15)


def test_field_at_quarter_turn_has_no_rotation_component():
    for v in (-2.0, 0.5, 3.0):
        out = planar_field((np.pi / 2, v), P1)
        assert out[0] == v
        assert abs(out[1]) < 1e-12


def test_boundary_values():
    p = PlanarParams(k=1.0, delta_omega=0.0)
    assert region_g_boundary(0.0, p, "upper") == 1.0
    assert region_g_boundary(0.0, p, "lower") == -1.0
    # closes to zero approaching the right corner
    assert abs(region_g_boundary(np.pi / 2 - 1e-9, p, "upper")) < 1e-9
    with pytest.raises(OutOfDomainError):
        region_g_boundary(np.pi / 2, p, "upper")
    with pytest.raises(OutOfDomainError):
        region_g_boundary(-2.0, p, "lower")
    with pytest.raises(ValueError):
        region_g_boundary(0.0, p, "sideways")


def test_membership_rules():
    for k in (0.5, 1.0, 2.0):
        p = PlanarParams(k=k, delta_omega=0.0)
        assert in_region_g((0.0, 0.0), p)
        assert in_region_g((0.0, k), p)  # closed frequency bound
        assert not in_region_g((np.pi / 2, 0.0), p)  # open phase bound
        assert not in_region_g((0.0, k + 1e-9), p)


def test_upper_boundary_is_invariant_level_set():
    p = PlanarParams(k=1.0, delta_omega=0.0)
    _, states = simulate_planar(p, np.array([0.0, p.k]), 10.0, 0.01)
    drift = states[:, 1] + p.k * np.sin(states[:, 0]) - p.k
    assert np.max(np.abs(drift)) < 1e-6


def planar_rk4_oracle(p, x0, t_end, dt):
    """The planar RK4 loop as it stood before it moved onto the shared
    driver, with the field written out as (x2, -K x2 cos x1)."""

    def field(x):
        return np.stack([x[..., 1], -p.k * x[..., 1] * np.cos(x[..., 0])], axis=-1)

    n_steps = max(1, int(round(t_end / dt)))
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x0
    x = x0.copy()
    for k in range(1, n_steps + 1):
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = x
    return np.arange(n_steps + 1) * dt, out


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 20.0),
    st.floats(-5.0, 5.0),
    st.one_of(
        arrays(float, 2, elements=st.floats(-4.0, 4.0)),
        arrays(float, st.tuples(st.integers(1, 6), st.just(2)), elements=st.floats(-4.0, 4.0)),
    ),
    st.floats(0.05, 3.0),
    st.sampled_from([0.01, 0.02, 0.05]),
)
def test_simulate_planar_matches_the_loop_it_replaced(k, dw, x0, t_end, dt):
    p = PlanarParams(k=k, delta_omega=dw)
    times, states = simulate_planar(p, x0, t_end, dt)
    ref_times, ref_states = planar_rk4_oracle(p, x0, t_end, dt)
    assert np.array_equal(times, ref_times)
    assert states.shape == ref_states.shape
    assert states.tobytes() == ref_states.tobytes()


@pytest.mark.parametrize(
    "x0,t_end,dt",
    [
        ((0.1, 0.2), np.inf, 0.01),
        ((0.1, 0.2), np.nan, 0.01),
        ((0.1, 0.2), 1.0, np.inf),
        ((np.nan, 0.2), 1.0, 0.01),
        ([[0.1, 0.2], [0.3, np.inf]], 1.0, 0.01),
    ],
)
def test_simulate_planar_rejects_non_finite_inputs(x0, t_end, dt):
    with pytest.raises(ValueError):
        simulate_planar(P1, x0, t_end, dt)


def test_stiff_planar_run_raises_divergence():
    p = PlanarParams(k=1e6, delta_omega=0.0)
    with warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error")  # the error is the only signal
        simulate_planar(p, np.array([0.1, 1.0]), 1.0, 0.01)


def test_direction_cone_degenerate_at_zero():
    interval = direction_cone_estimate(0.0, 0.1, P1)
    assert interval.lo == pytest.approx(interval.hi, abs=1e-15)
    assert interval.lo == pytest.approx(-math.cos(0.1), abs=1e-15)


def test_direction_cone_hand_values():
    interval = direction_cone_estimate(np.pi / 4, 0.1, P1)
    assert interval.lo == pytest.approx(-math.cos(np.pi / 4 - 0.1), abs=1e-15)
    assert interval.hi == pytest.approx(-math.cos(np.pi / 4 + 0.1), abs=1e-15)
    assert interval.lo <= interval.hi


def test_direction_cone_never_contains_zero():
    eps = 0.05
    for a in np.linspace(-np.pi / 2 + eps + 1e-6, np.pi / 2 - eps - 1e-6, 100):
        assert not direction_cone_estimate(a, eps, P1).contains(0.0)


def test_direction_cone_domain_errors():
    with pytest.raises(OutOfDomainError):
        direction_cone_estimate(1.47, 0.2, P1)
    with pytest.raises(OutOfDomainError):
        direction_cone_estimate(0.0, -0.1, P1)
    with pytest.raises(OutOfDomainError):
        direction_cone_estimate(1.7, 0.05, P1)


def test_nontangency_holds_across_equilibrium_interval():
    assert nontangency_planar(0.0, 0.1, P1)
    eps = 0.05
    grid = np.linspace(-np.pi / 2 + eps + 1e-6, np.pi / 2 - eps - 1e-6, 100)
    assert all(nontangency_planar(a, eps, P1) for a in grid)
    # inputs outside the validity strip are an error, not a False verdict
    with pytest.raises(OutOfDomainError):
        nontangency_planar(1.47, 0.2, P1)


def test_global_sync_verdict_dichotomy():
    assert global_sync_verdict(PlanarParams(k=1.0, delta_omega=0.5)).synchronizes
    assert not global_sync_verdict(PlanarParams(k=1.0, delta_omega=1.5)).synchronizes
    boundary = global_sync_verdict(PlanarParams(k=1.0, delta_omega=1.0))
    assert boundary.synchronizes
    assert boundary.stable_fixed_point == pytest.approx(np.pi / 2)


def test_global_sync_verdict_report_contents():
    rep = global_sync_verdict(PlanarParams(k=1.0, delta_omega=0.5))
    assert rep.bendixson_positive and rep.bendixson_min > 0.0
    assert rep.stable_fixed_point == pytest.approx(math.asin(0.5))
    assert rep.unstable_fixed_point == pytest.approx(np.pi - math.asin(0.5))
    neg = global_sync_verdict(PlanarParams(k=1.0, delta_omega=-0.5))
    assert neg.unstable_fixed_point == pytest.approx(-np.pi + math.asin(0.5))
    drift = global_sync_verdict(PlanarParams(k=1.0, delta_omega=2.0))
    assert drift.stable_fixed_point is None
    assert drift.unstable_fixed_point is None


def test_unbounded_drift_above_threshold():
    # no equilibrium exists, so the unwrapped difference grows without bound
    dth = 0.0
    dt, k, dw = 0.01, 1.0, 1.5
    x = dth
    for _ in range(10000):
        k1 = phase_difference_rate(x, k, dw)
        k2 = phase_difference_rate(x + 0.5 * dt * k1, k, dw)
        k3 = phase_difference_rate(x + 0.5 * dt * k2, k, dw)
        k4 = phase_difference_rate(x + dt * k3, k, dw)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert x - dth > 10.0


def test_trapping_region_positively_invariant():
    rng = np.random.default_rng(2718)
    for k in (1.0, 2.0):
        p = PlanarParams(k=k, delta_omega=0.0)
        starts = sample_region_states(p, 250, rng)
        _, states = simulate_planar(p, starts, 50.0, 0.01)
        x1 = states[..., 0]
        x2 = states[..., 1]
        upper = p.k * (1 - np.sin(x1))
        lower = -p.k * (1 + np.sin(x1))
        assert np.all(np.abs(x1) < np.pi / 2 + 1e-7)
        assert np.all(x2 <= upper + 1e-7)
        assert np.all(x2 >= lower - 1e-7)


def test_interior_starts_settle_on_equilibrium_line_and_stay_put():
    rng = np.random.default_rng(5)
    p = PlanarParams(k=1.0, delta_omega=0.0)
    starts = sample_region_states(p, 100, rng, x2_band=0.9)
    _, states = simulate_planar(p, starts, 60.0, 0.01)

    v1 = 0.5 * states[..., 1] ** 2
    assert np.max(np.diff(v1, axis=0)) < 1e-9  # energy never increases
    finals = states[-1]
    assert np.max(np.abs(finals[:, 1])) < 1e-6
    assert np.all(np.abs(finals[:, 0]) < np.pi / 2)

    # nudging a settled state must lead to a nearby settled state
    perturbed = finals + np.array([1e-3, 1e-3])
    _, states2 = simulate_planar(p, perturbed, 60.0, 0.01)
    finals2 = states2[-1]
    assert np.max(np.abs(finals2[:, 1])) < 1e-6
    assert np.max(np.abs(finals2[:, 0] - finals[:, 0])) < 1e-2


def test_boundary_level_set_derivative_vanishes():
    rng = np.random.default_rng(9)
    p = PlanarParams(k=1.3, delta_omega=0.0)
    pts = rng.uniform(-np.pi / 2, np.pi / 2, (1000, 2)) * np.array([1.0, 2.0])
    f = planar_field(pts, p)
    # d/dt of x2 + K sin(x1) along the flow
    deriv = f[:, 1] + p.k * np.cos(pts[:, 0]) * f[:, 0]
    assert np.max(np.abs(deriv)) <= 1e-12


def test_network_limit_matches_locked_offset():
    for k, dw in [(1.0, 0.5), (2.0, -1.2), (0.8, 0.3)]:
        net = OscillatorNetwork(2, [dw, 0.0], [k])
        traj = simulate(net, np.array([1.0, -0.5]), 80.0, 0.01, stop_on_sync=True)
        dtheta = wrap_phase(traj.thetas[-1, 0] - traj.thetas[-1, 1])
        assert dtheta == pytest.approx(math.asin(dw / k), abs=1e-6)
        assert phase_locked_offset(PlanarParams(k=k, delta_omega=dw)) == pytest.approx(
            math.asin(dw / k)
        )


def test_drift_fixed_point_location():
    assert drift_region_fixed_point(PlanarParams(k=1.0, delta_omega=0.0)) == pytest.approx(np.pi)
    assert drift_region_fixed_point(PlanarParams(k=1.0, delta_omega=2.0)) is None
