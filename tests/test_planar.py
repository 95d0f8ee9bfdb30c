"""Two-oscillator planar analysis: trapping region, cones, dichotomy."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaselock import (
    DivergenceError,
    OscillatorNetwork,
    OutOfDomainError,
    PlanarParams,
    SlopeInterval,
    direction_cone_estimate,
    drift_region_fixed_point,
    global_sync_verdict,
    in_region_g,
    nontangency_planar,
    phase_difference_rate,
    phase_locked_offset,
    planar_field,
    region_g_bounds,
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
    for k in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="coupling gain k must be positive and finite"):
            PlanarParams(k=k, delta_omega=1.0)
    for delta_omega in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="delta_omega must be finite"):
            PlanarParams(k=1.0, delta_omega=delta_omega)


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
    assert region_g_bounds(0.0, p) == (1.0, -1.0)
    # the upper bound closes to zero approaching the right corner
    assert abs(region_g_bounds(np.pi / 2 - 1e-9, p)[0]) < 1e-9
    with pytest.raises(OutOfDomainError):
        region_g_bounds(np.pi / 2, p)
    with pytest.raises(OutOfDomainError):
        region_g_bounds(-2.0, p)


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
    driver, with the field written out as (x2, -K x2 cos x1) and each stage
    scaled before the sum."""

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
        x = x + (dt / 6.0) * k1 + (dt / 3.0) * k2 + (dt / 3.0) * k3 + (dt / 6.0) * k4
        out[k] = x
    return np.arange(n_steps + 1) * dt, out


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 20.0),
    st.floats(-5.0, 5.0),
    st.one_of(
        arrays(float, 2, elements=st.floats(-4.0, 4.0)),
        # batches of up to 64 states, past where a numpy step would be faster
        arrays(float, st.tuples(st.integers(1, 64), st.just(2)), elements=st.floats(-4.0, 4.0)),
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


@pytest.mark.parametrize("shape", [(3,), (5, 3), (20, 3), (2, 1), (), (1,)])
def test_simulate_planar_rejects_states_that_are_not_pairs(shape):
    # batches of triples, a last axis of 1, and shapes too short to index
    message = f"x must hold (x1, x2) pairs on its last axis; got shape {shape}"
    for call in (
        lambda x: simulate_planar(P1, x, 1.0, 0.1),
        lambda x: planar_field(x, P1),
        lambda x: in_region_g(x, P1),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(np.zeros(shape))


def test_region_membership_of_a_batch_is_that_of_each_state():
    starts = np.random.default_rng(4).uniform(-2.0, 2.0, (200, 2))
    starts[:3] = [(np.inf, 0.0), (0.0, np.nan), (0.0, P1.k)]
    inside = in_region_g(starts, P1)
    assert inside.shape == (200,) and inside.dtype == bool
    assert inside.tolist() == [in_region_g(x, P1) for x in starts]
    assert in_region_g(starts[:1], P1).tolist() == [False]
    assert type(in_region_g((0.0, P1.k), P1)) is bool


def test_stiff_planar_run_raises_divergence():
    # (0.1, 1) leaves the float range at the end of a step; in a stage of
    # (0, 1) the phase itself reaches inf, where math.cos raises. Each must
    # name the same step alone and in batches of 1 to 64 states.
    p = PlanarParams(k=1e6, delta_omega=0.0)
    for start in ((0.1, 1.0), (0.0, 1.0)):
        raised = []
        for x0 in (np.array(start), *(np.tile(start, (m, 1)) for m in (1, 16, 17, 64))):
            with warnings.catch_warnings(), pytest.raises(DivergenceError) as exc:
                warnings.simplefilter("error")  # the error is the only signal
                simulate_planar(p, x0, 1.0, 0.01)
            raised.append((exc.value.step, exc.value.time, str(exc.value)))
        assert raised == [raised[-1]] * 5


def test_a_step_whose_stages_sum_past_the_float_range_stays_finite():
    # x1 moves by about 1e306 a step: k1 + 2 k2 + 2 k3 + k4 would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, states = simulate_planar(PlanarParams(1, 0), [0, 1e308], 0.02, 0.01)
    assert states.shape == (3, 2) and np.isfinite(states).all()
    assert states[1, 0] == pytest.approx(1e306, rel=0.01)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.1, 2.0),
    arrays(float, st.tuples(st.integers(1, 8), st.just(2)), elements=st.floats(-1.0, 1.0)),
    st.floats(0.05, 10.0),
    st.sampled_from([0.0025, 0.005, 0.01]),
)
def test_every_planar_run_keeps_its_adler_constant(k, unit, t_end, dt):
    # d/dt (x2 + K sin x1) = 0 on planar_field, so each run solves Adler's
    # equation x1' = c - K sin x1 with c fixed by its start
    _, states = simulate_planar(PlanarParams(k=k, delta_omega=0.0), unit * [np.pi, 2.0], t_end, dt)
    c = states[..., 1] + k * np.sin(states[..., 0])
    # on this domain the drift peaks at 3.6e-8: K = 2, x0 = (-pi/2, -2), 10 s at dt 0.01
    assert np.abs(c - c[0]).max() < 1e-6


def adler_closed_form(k, c, x1_0, t):
    """Exact (x1, x2) at time t of x1' = c - K sin x1, x2 = c - K sin x1,
    for |c| < K and |x1_0| <= pi/2. With u = tan(x1 / 2) the equation is the
    Riccati u' = (c u^2 - 2K u + c) / 2; its stable root u_s = c / (K + w),
    w = sqrt(K^2 - c^2), linearizes it in 1 / (u - u_s)."""
    w = math.sqrt(k * k - c * c)
    u_s = c / (k + w)
    d, g = math.tan(x1_0 / 2.0) - u_s, math.exp(w * t)
    x1 = 2.0 * math.atan(u_s + d / (g - d * (c / (2.0 * w)) * (g - 1.0)))
    return x1, c - k * math.sin(x1)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.floats(-0.8, 0.8),
    st.floats(-np.pi / 2, np.pi / 2),
    st.floats(0.02, 1.0),
    st.sampled_from([0.02, 0.01, 0.005]),
)
def test_planar_end_states_meet_adlers_closed_form(k, ratio, x1_0, t_end, dt):
    # RK4's global error is O(dt^4): 3000 random draws and a corner grid of
    # this domain measured at most 0.364 dt^4 (K = 2), shrinking 16.6x per
    # halving of dt; a wrong stage weight leaves an O(dt) error
    c = ratio * k
    times, states = simulate_planar(
        PlanarParams(k=k, delta_omega=c), [x1_0, c - k * math.sin(x1_0)], t_end, dt
    )
    assert states[-1] == pytest.approx(adler_closed_form(k, c, x1_0, times[-1]), abs=dt**4)


def test_small_batch_stores_its_trajectory_without_a_second_copy(traced_peak):
    for m in (8, 64):
        starts = np.random.default_rng(3).uniform(-1.0, 1.0, (m, 2))
        (_, states), peak = traced_peak(simulate_planar, P1, starts, 10.0, 0.01)
        assert states.shape == (1001, m, 2)
        assert peak < 1.5 * states.nbytes


def test_direction_cone_degenerate_at_zero():
    interval = direction_cone_estimate(0.0, 0.1, P1)
    assert interval.lo == pytest.approx(interval.hi, abs=1e-15)
    assert interval.lo == pytest.approx(-math.cos(0.1), abs=1e-15)


@pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (-1e-300, -2e-300), (math.nan, 1.0), (0.0, math.nan)])
def test_slope_interval_rejects_lo_above_hi(lo, hi):
    with pytest.raises(ValueError, match="lo <= hi"):
        SlopeInterval(lo, hi)


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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.floats(min_value=-1.7e308, max_value=1.7e308),
)
@example(1.0, math.nextafter(1.0, 2.0))
@example(1.0, math.nextafter(-1.0, -2.0))
@example(5e-324, -1e-323)
@example(1.7e308, math.nextafter(-1.7e308, 0.0))
def test_the_pair_locks_exactly_when_its_mismatch_is_at_most_its_gain(k, dw):
    # phase_locked_offset's |dw / K| <= 1 is the only lock test; rounded
    # division is monotone, so it reads |dw| <= K even one ulp either side
    p = PlanarParams(k=k, delta_omega=dw)
    report = global_sync_verdict(p)
    assert report.synchronizes == (abs(dw) <= k)
    assert (report.unstable_fixed_point is None) == (not report.synchronizes)


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
