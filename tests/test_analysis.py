"""Equilibria, spectra, gain bounds, invariant sets, Lyapunov diagnostics."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_dynamics import forbid_incidence

import phaselock.analysis
from phaselock import (
    INDETERMINATE,
    SEMISTABLE_CANDIDATE,
    UNSTABLE,
    DivergenceError,
    EdgeState,
    NoEquilibriumError,
    OscillatorNetwork,
    SingularJacobianError,
    Trajectory,
    attracting_set_check,
    classify_stability,
    coupling_bounds,
    edge_index,
    edge_pairs,
    g_matrix,
    in_set_h,
    incidence_matrix,
    invariance_certificate,
    is_connected,
    linearize,
    lyapunov_v2_along,
    lyapunov_v3,
    nontangency_rank_test,
    simulate,
    simulate_many,
    solve_equilibrium,
    sufficient_gain_bounds,
    sync_frequency,
    theta_dot,
    uniform_critical_gain,
    wrap_phase,
)
from phaselock.analysis import (
    RANK_TOL,
    ZERO_TOL,
    _complement_basis,
    _sample_box_states,
    onset_lower_bounds,
)
from phaselock.dynamics import _BLOCK_VALUES, SYNC_TOL, _rk4_steps

CHAIN = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])


def test_solve_equilibrium_identical_frequencies():
    net = OscillatorNetwork(4, np.full(4, 1.3), np.ones(6))
    assert np.array_equal(solve_equilibrium(net), np.zeros(6))


def test_solve_equilibrium_bundled_chain():
    x_star = solve_equilibrium(CHAIN)
    assert x_star[0] == pytest.approx(0.0, abs=1e-9)
    assert x_star[1] == pytest.approx(-np.pi / 6, abs=1e-9)
    assert x_star[2] == pytest.approx(-np.pi / 6, abs=1e-9)


def test_solve_equilibrium_two_oscillators_analytic():
    net = OscillatorNetwork(2, [0.5, 0.0], [1.0])
    assert solve_equilibrium(net)[0] == pytest.approx(np.arcsin(0.5), abs=1e-12)


def test_solve_equilibrium_guess_validation():
    with pytest.raises(ValueError):
        solve_equilibrium(CHAIN, theta_guess=np.array([0.0, 3.5, 0.0]))
    with pytest.raises(ValueError):
        solve_equilibrium(CHAIN, theta_guess=np.array([0.0, np.nan, 0.0]))


def test_solve_equilibrium_leaves_the_guess_unchanged():
    # Newton steps its iterate in place, so the iterate must be a copy
    guess = np.array([0.3, -0.2, 0.1])
    x_star = solve_equilibrium(CHAIN, theta_guess=guess)
    assert np.array_equal(guess, [0.3, -0.2, 0.1])
    assert x_star[1] == pytest.approx(-np.pi / 6, abs=1e-9)


def test_solve_equilibrium_subcritical_gain_fails_loudly():
    net = OscillatorNetwork(2, [0.5, 0.0], [0.4])  # mismatch exceeds gain
    with pytest.raises((NoEquilibriumError, SingularJacobianError)):
        solve_equilibrium(net)


def test_linearize_two_oscillator_block():
    net = OscillatorNetwork(2, [0.0, 0.0], [2.0])
    a = linearize(net, np.zeros(1))
    assert np.array_equal(a, np.array([[0.0, 1.0], [0.0, -2.0]]))
    eigs = sorted(np.linalg.eigvals(a).real)
    assert eigs == pytest.approx([-2.0, 0.0])


def test_linearize_quarter_turn_zeroes_column():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    a = linearize(net, np.array([np.pi / 2, 0.1, -0.2]))
    g = a[3:, 3:]
    assert np.max(np.abs(g[:, 0])) < 1e-12


def test_linearize_spectrum_splits_into_zeros_plus_g():
    rng = np.random.default_rng(3)
    for n in (3, 4):
        e = n * (n - 1) // 2
        net = OscillatorNetwork(n, rng.uniform(-1, 1, n), rng.uniform(0.5, 2, e))
        x = rng.uniform(-1.0, 1.0, e)
        a = linearize(net, x)
        g = a[e:, e:]
        got = np.sort_complex(np.linalg.eigvals(a))
        expected = np.sort_complex(
            np.concatenate([np.zeros(e, dtype=complex), np.linalg.eigvals(g)])
        )
        assert np.max(np.abs(got - expected)) < 1e-9


def test_classify_bundled_chain_semistable_candidate():
    report = classify_stability(CHAIN, solve_equilibrium(CHAIN))
    assert report.classification == SEMISTABLE_CANDIDATE
    assert report.n_zero == 2 * 3 - 2
    assert np.all(report.g_restricted_eigenvalues.real < 0)


def test_classify_drift_region_equilibrium_unstable():
    net = OscillatorNetwork(2, [0.5, 0.0], [1.0])
    report = classify_stability(net, np.array([np.pi - np.arcsin(0.5)]))
    assert report.classification == UNSTABLE


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_identical_frequencies_zero_count(n):
    e = n * (n - 1) // 2
    net = OscillatorNetwork(n, np.zeros(n), np.ones(e))
    report = classify_stability(net, np.zeros(e))
    assert report.classification == SEMISTABLE_CANDIDATE
    assert report.n_zero == 2 * e - (n - 1)


def test_classify_disconnected_is_indeterminate():
    net = OscillatorNetwork(3, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    report = classify_stability(net, np.zeros(3))
    assert report.classification == INDETERMINATE


def test_semistable_candidate_attracts_perturbations():
    x_star = solve_equilibrium(CHAIN)
    rng = np.random.default_rng(21)
    theta_star = np.array([x_star[1], x_star[2], 0.0])  # x = B^T theta
    for _ in range(5):
        theta0 = theta_star + 1e-2 * rng.normal(size=3)
        traj = simulate(CHAIN, theta0, 50.0, 0.005, stop_on_sync=True)
        x_end = traj.edge_x(CHAIN)[-1]
        assert np.max(np.abs(wrap_phase(x_end - x_star))) < 1e-4
        assert np.max(np.abs(traj.edge_v(CHAIN)[-1])) < 1e-6


def test_unstable_equilibrium_repels_perturbations():
    net = OscillatorNetwork(2, [0.5, 0.0], [1.0])
    x_unstable = np.pi - np.arcsin(0.5)
    rng = np.random.default_rng(22)
    repelled = 0
    for _ in range(10):
        theta0 = np.array([x_unstable, 0.0]) + 1e-4 * rng.normal(size=2)
        traj = simulate(net, theta0, 40.0, 0.01)
        if abs(wrap_phase(traj.edge_x(net)[-1, 0] - x_unstable)) > 0.1:
            repelled += 1
    assert repelled >= 1


def test_sufficient_gain_bounds_values():
    assert np.array_equal(
        sufficient_gain_bounds(OscillatorNetwork(3, np.full(3, 2.0), np.ones(3))),
        np.zeros(3),
    )
    assert np.array_equal(
        sufficient_gain_bounds(OscillatorNetwork(2, [1.0, 0.0], [1.0])), [1.0]
    )
    assert np.array_equal(sufficient_gain_bounds(CHAIN), [1.5, 3.0, 1.5])


def test_uniform_critical_gain_values():
    assert uniform_critical_gain(OscillatorNetwork(2, [1.0, 0.0], [1.0])) == 1.0
    net5 = OscillatorNetwork(5, np.arange(1.0, 6.0), np.ones(10))
    assert uniform_critical_gain(net5) == 2.5
    assert uniform_critical_gain(OscillatorNetwork(4, np.full(4, 3.0), np.ones(6))) == 0.0


def test_uniform_critical_gain_does_not_overflow_below_the_float_range():
    # N max|omega_i - omega_j| = 3e308 overflows; K0 itself is 7.5e307
    net = OscillatorNetwork(3, [0.0, 1.0, 1e308], np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uniform_critical_gain(net) == 0.75 * 1e308


def test_onset_lower_at_uniform_threshold():
    # with every gain at the uniform threshold, the tightest edge sits
    # exactly at its onset value
    net5 = OscillatorNetwork(5, np.arange(1.0, 6.0), np.full(10, 2.5))
    onset = onset_lower_bounds(net5)
    mismatch = np.abs(incidence_matrix(5).T @ net5.natural_frequencies)
    tightest = int(np.argmax(mismatch))
    assert onset[tightest] == pytest.approx(2.5, abs=1e-12)
    assert np.all(onset >= 0)


def test_onset_lower_is_not_swamped_by_a_large_gain():
    # edge (1,2): (3 * 1 - (1 + 1)) / 2 = 0.5, whatever its own gain
    net = OscillatorNetwork(3, [0.0, 1.0, 2.0], [1e16, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(onset_lower_bounds(net), [0.5, 0.0, 0.0])


def test_in_set_h_identical_frequencies():
    net = OscillatorNetwork(3, np.full(3, 1.0), np.array([2.0, 1.0, 3.0]))
    result = in_set_h(EdgeState(x=np.zeros(3), v=np.zeros(3)), net)
    assert result.in_set
    assert result.slack == pytest.approx((2.0 / 3.0) * net.coupling_gains)


def test_in_set_h_two_oscillator_hand_case():
    net = OscillatorNetwork(2, [0.5, 0.0], [2.0])
    result = in_set_h(EdgeState(x=np.zeros(1), v=np.array([0.5])), net)
    assert result.in_set
    assert result.slack[0] == pytest.approx(2.0 - 0.5)


def test_in_set_h_rejections():
    net = OscillatorNetwork(3, [1.0, 1.0, 1.0], np.ones(3))
    on_face = EdgeState(x=np.array([np.pi / 2, 0.0, -np.pi / 2]), v=np.zeros(3))
    assert not in_set_h(on_face, net).in_box
    off_colspace = EdgeState(x=np.array([0.3, 0.0, 0.0]), v=np.zeros(3))
    result = in_set_h(off_colspace, net)
    assert not result.in_colspace and not result.in_set
    x = np.array([0.2, 0.3, 0.1])  # consistent: x3 = x2 - x1
    bad_v = EdgeState(x=x, v=np.full(3, 0.7))
    assert not in_set_h(bad_v, net).v_consistent


def test_in_set_h_reads_equal_infinities_as_consistent():
    # V = B^T omega holds inf on edge (0, 1), as the identity does at X = 0
    net = OscillatorNetwork(3, [1.7e308, -1.7e308, 0.0], np.ones(3))
    v = np.array([np.inf, 1.7e308, -1.7e308])
    assert in_set_h(EdgeState(x=np.zeros(3), v=v), net).v_consistent
    v[1] = np.inf
    assert not in_set_h(EdgeState(x=np.zeros(3), v=v), net).v_consistent


def test_attracting_set_check_two_oscillators():
    net = OscillatorNetwork(2, [0.5, 0.0], [2.0])
    rep = attracting_set_check(net, np.pi / 2)
    assert rep.satisfied
    assert rep.lhs == pytest.approx(2.0)
    assert rep.margin == pytest.approx(1.5)


def test_attracting_set_check_uniform_identical():
    net = OscillatorNetwork(4, np.full(4, 2.0), np.full(6, 1.5))
    for delta in (0.1, 1.0, 3.0):
        rep = attracting_set_check(net, delta)
        assert rep.satisfied and rep.margin > 0


def test_attracting_set_check_small_angle_fails():
    net = OscillatorNetwork(2, [0.5, 0.0], [2.0])
    assert not attracting_set_check(net, 1e-6).satisfied


def test_attracting_set_check_side_condition():
    # wide gain spread: margin positive but one gain below (N-2) spread / 2
    net = OscillatorNetwork(4, np.full(4, 1.0), np.array([10.0, 9.0, 4.9, 10.0, 10.0, 10.0]))
    rep = attracting_set_check(net, np.pi / 2)
    assert rep.margin > 0
    assert not rep.side_condition_ok
    assert not rep.satisfied


def test_attracting_set_check_delta_range():
    with pytest.raises(ValueError):
        attracting_set_check(CHAIN, 0.0)
    with pytest.raises(ValueError):
        attracting_set_check(CHAIN, np.pi)


def test_attracting_set_check_without_positive_gains():
    # no active edge: the gain spread is zero, the side condition vacuous
    rep = attracting_set_check(OscillatorNetwork(3, [1.0, 2.0, 3.0], np.zeros(3)), 0.5)
    assert (rep.lhs, rep.rhs, rep.margin) == (0.0, 4.0, -4.0)
    assert rep.side_condition_ok and not rep.satisfied


def _exact_margin(net, delta, sign=-1):
    """The attracting-set margin in exact rationals (sin delta as rounded);
    with sign=+1 every term counts by its size, the scale of the rounding
    error of the margin's float sums."""
    n = net.n_oscillators
    gains = [Fraction(g) for g in net.coupling_gains]
    active = [g for g in gains if g > 0]
    spread = max(active) - min(active) if active else Fraction(0)
    lhs = sum(2 * g + sign * (n - 2) * spread for g in active) * Fraction(np.sin(delta)) / n
    omega = [Fraction(w) for w in net.natural_frequencies]
    mismatch = sum(abs(omega[i] - omega[j]) for i, j in edge_pairs(n))
    return lhs + sign * (mismatch + (len(gains) - len(active)) * (n - 2) * spread / n)


@pytest.mark.parametrize(
    "net",
    [
        OscillatorNetwork(3, [0.0, 1.0, 2.0], [1.7e308, 1.0, 1.0]),
        # gains on edges (1,2), (1,3) and (3,4)
        OscillatorNetwork(4, np.arange(4.0), [1e308, 1e308, 0.0, 0.0, 0.0, 1.0]),
    ],
    ids=["gain-1.7e308", "gains-1e308"],
)
def test_attracting_margin_next_to_the_float_limit_is_finite(net):
    # 2 g and N * spread pass the float range; the margin does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = attracting_set_check(net, 0.5)
    exact = _exact_margin(net, 0.5)
    assert rep.margin == pytest.approx(float(exact), rel=1e-15)
    assert rep.margin == pytest.approx(rep.lhs - rep.rhs, rel=1e-15)
    assert not rep.side_condition_ok and not rep.satisfied


# magnitudes whose scalings by 2^+-60 stay normal, with their differences
_NORMAL = st.just(0.0) | st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)


@st.composite
def normal_networks(draw):
    n = draw(st.integers(2, 8))
    omega = draw(arrays(float, n, elements=_NORMAL))
    gains = np.abs(draw(arrays(float, n * (n - 1) // 2, elements=_NORMAL)))
    return OscillatorNetwork(n, omega, gains)


@settings(max_examples=200, deadline=None)
@given(normal_networks(), st.integers(-60, 60))
def test_bounds_scale_exactly_with_a_power_of_two(net, k):
    n = net.n_oscillators
    scaled = OscillatorNetwork(
        n, np.ldexp(net.natural_frequencies, k), np.ldexp(net.coupling_gains, k)
    )
    bounds, bounds_scaled = coupling_bounds(net), coupling_bounds(scaled)
    for field in ("per_edge_sufficient", "uniform_k0", "onset_lower", "attracting_margin"):
        assert np.array_equal(np.ldexp(getattr(bounds, field), k), getattr(bounds_scaled, field))
    assert bounds_scaled.attracting_satisfied == bounds.attracting_satisfied


# zero, subnormal, tiny, huge and next-to-largest magnitudes, with ordinary values
_WHOLE_RANGE = st.sampled_from(
    [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e150, 1e300, -1e300, 1.7e308, -1.7e308, 0.5, -2.0, 3.0]
) | st.floats(-1e3, 1e3)


@st.composite
def whole_range_networks(draw):
    n = draw(st.integers(2, 6))
    omega = draw(arrays(float, n, elements=_WHOLE_RANGE))
    gains = np.abs(draw(arrays(float, n * (n - 1) // 2, elements=_WHOLE_RANGE)))
    return OscillatorNetwork(n, omega, gains)


def _assert_near_exact(got, exact, normal, rel=1e-15, scale=None):
    """got is the signed inf where the rational ``exact`` passes the float
    range, and within rel * scale (|exact| by default) of it where |exact|
    is at least ``normal``."""
    try:
        value = float(exact)
    except OverflowError:
        assert got == (np.inf if exact > 0 else -np.inf)
        return
    if abs(value) >= normal:
        tol = Fraction(rel) * (abs(exact) if scale is None else scale)
        assert np.isfinite(got) and abs(Fraction(got) - exact) <= tol, (got, value)


@settings(max_examples=150, deadline=None)
@given(whole_range_networks())
def test_thresholds_over_the_whole_float_range_are_exact_where_they_can_be(net):
    n, e = net.n_oscillators, net.n_edges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = coupling_bounds(net)
        slack = in_set_h(EdgeState(x=np.zeros(e), v=np.zeros(e)), net).slack
    for name in ("per_edge_sufficient", "uniform_k0", "onset_lower", "attracting_margin"):
        assert not np.isnan(getattr(bounds, name)).any(), name
    assert not np.isnan(slack).any()
    # a value below the smallest normal double in the frame loses bits there
    normal = np.finfo(float).tiny * phaselock.analysis._frame(net)
    omega = [Fraction(w) for w in net.natural_frequencies]
    mismatch = [abs(omega[i] - omega[j]) for i, j in edge_pairs(n)]
    for got, m in zip(bounds.per_edge_sufficient, mismatch):
        _assert_near_exact(got, Fraction(n, 2) * m, normal)
    _assert_near_exact(bounds.uniform_k0, n * max(mismatch) / (2 * (n - 1)), normal)
    # lhs - rhs may cancel: the error of its float sums is bounded by the
    # sizes of its terms, about e + 3 roundings of each
    rel, scale = (e + 3) * np.finfo(float).eps, _exact_margin(net, 0.5, sign=1)
    _assert_near_exact(bounds.attracting_margin, _exact_margin(net, 0.5), normal, rel, scale)


@st.composite
def float_range_networks(draw):
    n = draw(st.integers(2, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    omega = draw(arrays(float, n, elements=finite | _WHOLE_RANGE))
    gains = np.abs(draw(arrays(float, n * (n - 1) // 2, elements=finite | _WHOLE_RANGE)))
    return OscillatorNetwork(n, omega, gains)


@settings(max_examples=300, deadline=None)
@given(float_range_networks() | normal_networks())
def test_k0_read_off_the_frequency_range_is_the_largest_edge_mismatch(net):
    # correctly rounded subtraction is monotone, so max - min is the largest
    # rounded |omega_i - omega_j| bit for bit
    n, s = net.n_oscillators, phaselock.analysis._frame(net)
    top = float(np.max(phaselock.analysis._edge_frequency_mismatch(net, s)))
    want = phaselock.analysis._unframe(s, n * top / (2.0 * (n - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uniform_critical_gain(net) == want


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: solve_equilibrium(CHAIN, theta_guess=np.zeros(2)), r"shape \(3,\)"),
        (lambda: in_set_h(EdgeState(x=np.zeros(2), v=np.zeros(2)), CHAIN), "2 edges, expected 3"),
    ],
    ids=["theta-guess-shape", "set-h-edge-count"],
)
def test_wrong_sized_inputs_are_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_lyapunov_v3_values():
    assert lyapunov_v3(np.zeros(3), 3) == pytest.approx(-np.pi)
    assert lyapunov_v3(np.full(3, np.pi / 2), 3) == pytest.approx(np.pi / 2)
    stacked = lyapunov_v3(np.zeros((4, 3)), 3)
    assert stacked.shape == (4,)
    with pytest.raises(ValueError, match="3 edges"):
        lyapunov_v3(np.zeros(4), 3)  # N = 3 has 3 edges


def test_lyapunov_v3_decreases_outside_half_circle_box():
    # strong uniform coupling, start with one difference beyond pi/2
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], np.full(3, 12.0))
    assert attracting_set_check(net, 0.3).satisfied
    theta0 = np.array([2.4, 0.4, 0.0])  # x = (2.0, 2.4, 0.4)
    traj = simulate(net, theta0, 10.0, 0.002)
    x = traj.edge_x(net)
    v3 = lyapunov_v3(x, 3)
    outside = np.any(np.abs(x) >= np.pi / 2, axis=1)
    moving = np.all(np.abs(x) > 1e-9, axis=1)  # skip kinks of the potential
    for t in range(len(v3) - 1):
        if outside[t] and outside[t + 1] and moving[t] and moving[t + 1]:
            assert v3[t + 1] <= v3[t] + 1e-9


def test_lyapunov_v2_along_synchronized_state_is_zero():
    net = OscillatorNetwork(3, np.full(3, 2.0), np.ones(3))
    traj = simulate(net, np.full(3, 0.4), 1.0, 0.01)
    v2, v2_dot = lyapunov_v2_along(traj, net)
    assert np.max(np.abs(v2)) == 0.0
    assert np.max(np.abs(v2_dot)) == 0.0


def test_lyapunov_v2_nonincreasing_in_box():
    rng = np.random.default_rng(33)
    net = OscillatorNetwork(4, rng.uniform(-1, 1, 4), rng.uniform(2.0, 4.0, 6))
    theta0 = rng.uniform(-0.3, 0.3, 4)
    traj = simulate(net, theta0, 20.0, 0.01)
    assert np.all(np.abs(traj.edge_x(net)) < np.pi / 2)
    v2, v2_dot = lyapunov_v2_along(traj, net)
    assert np.max(np.diff(v2)) < 1e-9
    assert np.max(v2_dot) <= 1e-12


def test_nontangency_rank_test_connected_origin():
    net = OscillatorNetwork(4, np.zeros(4), np.ones(6))
    assert nontangency_rank_test(net, np.zeros(6))


def test_nontangency_rank_test_disconnected():
    net = OscillatorNetwork(3, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert not nontangency_rank_test(net, np.zeros(3))


def test_nontangency_rank_test_random_states_connected():
    rng = np.random.default_rng(8)
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], np.array([1.0, 0.5, 2.0]))
    for _ in range(100):
        x = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 3)
        assert nontangency_rank_test(net, x)


def test_nontangency_rank_test_requires_box():
    net = OscillatorNetwork(3, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        nontangency_rank_test(net, np.array([np.pi / 2, 0.0, 0.0]))


def test_sync_frequency_values():
    assert sync_frequency(OscillatorNetwork(5, np.arange(1.0, 6.0), np.ones(10))) == 3.0
    assert sync_frequency(OscillatorNetwork(3, np.full(3, 0.7), np.ones(3))) == pytest.approx(0.7)
    assert sync_frequency(CHAIN) == 2.0


@settings(max_examples=200, deadline=None)
@given(whole_range_networks())
def test_sync_frequency_is_the_mean_over_the_whole_float_range(net):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sync_frequency(net)
    n, s = net.n_oscillators, Fraction(phaselock.analysis._frame(net))
    mean = sum(map(Fraction, net.natural_frequencies)) / n
    # one rounding of the sum and one of the division, and (absolute, in a
    # frame no larger than ``_frame``'s) the rounding of each subnormal
    # omega / s and of the result
    tol = Fraction(np.finfo(float).eps) * abs(mean) + (n + 1) * Fraction(5e-324) * s
    assert np.isfinite(got) and abs(Fraction(got) - mean) <= tol


def test_sync_frequency_rounds_the_sum_once():
    # a plain float sum loses the -2s to 1e300; the mean is -4 / 5
    net = OscillatorNetwork(5, [-1e300, -2.0, -2.0, 1e300, 1e-300], np.ones(10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sync_frequency(net) == -0.8


def test_equilibria_inside_box_synchronize_to_mean():
    rng = np.random.default_rng(44)
    for n in (3, 4):
        e = n * (n - 1) // 2
        omega = rng.uniform(-1, 1, n)
        net = OscillatorNetwork(n, omega, np.full(e, 6.0))
        x_star = solve_equilibrium(net)
        assert np.all(np.abs(x_star) < np.pi / 2)
        traj = simulate(net, rng.uniform(-0.4, 0.4, n), 60.0, 0.01, stop_on_sync=True)
        assert traj.synchronized_at is not None
        assert np.max(np.abs(traj.theta_dots[-1] - sync_frequency(net))) < 1e-6


def test_invariance_certificate_two_oscillators():
    net = OscillatorNetwork(2, [0.5, 0.0], [1.0])
    report = invariance_certificate(net, n_samples=200, horizon=50.0, seed=101)
    assert report.bounds_met
    assert report.passed and report.fraction == 1.0


def test_invariance_certificate_bundled_chain():
    report = invariance_certificate(CHAIN, n_samples=100, horizon=50.0, seed=102)
    assert report.passed  # invariant even though the absent edge fails the bound
    assert not report.bounds_met


def test_invariance_certificate_reports_escapes():
    omega = np.array([0.0, 4.0, 8.0])
    weak = 0.5 * sufficient_gain_bounds(OscillatorNetwork(3, omega, np.ones(3)))
    net = OscillatorNetwork(3, omega, weak)
    report = invariance_certificate(net, n_samples=50, horizon=50.0, seed=103)
    assert not report.passed
    assert report.fraction < 1.0
    assert not report.bounds_met


def test_invariance_certificate_is_deterministic():
    net = OscillatorNetwork(3, [1.0, 1.5, 2.0], np.full(3, 3.0))
    r1 = invariance_certificate(net, n_samples=20, horizon=5.0, seed=7)
    r2 = invariance_certificate(net, n_samples=20, horizon=5.0, seed=7)
    assert r1 == r2 and r1.n_samples == 20


def test_bound_consistency_met_bounds_imply_invariance():
    rng = np.random.default_rng(55)
    for n in (3, 4):
        e = n * (n - 1) // 2
        omega = rng.uniform(-1.5, 1.5, n)
        base = OscillatorNetwork(n, omega, np.ones(e))
        gains = np.maximum(1.2 * sufficient_gain_bounds(base), 0.1)
        net = OscillatorNetwork(n, omega, gains)
        report = invariance_certificate(net, n_samples=40, horizon=30.0, seed=500 + n)
        assert report.bounds_met and report.passed


def test_solve_equilibrium_fold_point_guess_is_singular():
    net = OscillatorNetwork(2, [1.0, 1.0], [1.0])
    with pytest.raises(SingularJacobianError, match=r"cos\(x_i\) = 0 crossing$"):
        solve_equilibrium(net, theta_guess=np.array([np.pi / 2, 0.0]))


@pytest.mark.parametrize(
    "net",
    [
        OscillatorNetwork(4, [1.0, 0.0, 0.5, -0.5], [1.0, 0, 0, 0, 0, 1.0]),
        OscillatorNetwork(3, [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]),
    ],
    ids=["two-components", "all-gains-zero"],
)
def test_solve_equilibrium_names_a_disconnected_graph(net):
    # edges (1,2) and (3,4) only, or no edge at all: the Laplacian has a
    # second zero eigenvalue whatever the phases
    assert not is_connected(net)
    with pytest.raises(SingularJacobianError, match="positive-gain graph is disconnected$"):
        solve_equilibrium(net)


def test_singular_newton_iterate_reads_connectivity_once(monkeypatch):
    calls = []

    def counted(net, connected=phaselock.analysis.is_connected):
        calls.append(net)
        return connected(net)

    monkeypatch.setattr(phaselock.analysis, "is_connected", counted)
    net = OscillatorNetwork(3, [0.0, 0.1, 0.2], [1.0, 0.0, 0.0])
    with pytest.raises(SingularJacobianError, match="positive-gain graph is disconnected$"):
        solve_equilibrium(net)
    assert len(calls) == 1


# Inside the box the verdict and the rank test read the positive-gain graph, so a
# link of any positive gain joins two blocks, however weak next to them.


def _two_cliques(link, omega=(0.0,) * 5):
    """Two unit-gain 5-cliques with frequencies ``omega`` each, joined by
    the edge (5, 6) of gain ``link``."""
    n = 10
    i, j = np.triu_indices(n, 1)
    gains = np.where((i < 5) == (j < 5), 1.0, 0.0)
    gains[edge_index(n, 4, 5)] = link
    return OscillatorNetwork(n, np.tile(omega, 2), gains)


FACE = np.nextafter(np.pi / 2, 0.0)


@pytest.mark.parametrize("x", [(FACE, 0.0, 0.0), (FACE, 0.0, FACE)])
def test_an_edge_next_to_the_face_counts_whatever_the_others(x):
    # the path 1 - 2 - 3: k_e cos x_e > 0 on both edges, since fl(pi/2) < pi/2
    net = OscillatorNetwork(3, np.zeros(3), [1.0, 0.0, 1.0])
    assert classify_stability(net, x).classification == SEMISTABLE_CANDIDATE
    assert nontangency_rank_test(net, x)


@pytest.mark.parametrize("link", [1e-8, 1e-10, 1e-14])
def test_a_weak_link_is_decided_by_the_graph(link):
    net = _two_cliques(link)
    report = classify_stability(net, np.zeros(net.n_edges))
    assert report.classification == SEMISTABLE_CANDIDATE
    assert nontangency_rank_test(net, np.zeros(net.n_edges))
    # a lock exists: each clique's frequencies sum to zero, so the link
    # carries no flow; Newton finds it or names the weak coupling
    net = _two_cliques(link, np.array([0.0, 0.1, -0.1, 0.05, -0.05]))
    try:
        x_star = solve_equilibrium(net)
    except SingularJacobianError as exc:
        assert "weak coupling" in str(exc)
    else:
        assert np.max(np.abs(x_star)) == pytest.approx(0.51, abs=0.02)
        assert classify_stability(net, x_star).classification == SEMISTABLE_CANDIDATE


@st.composite
def weak_link_cases(draw):
    """Two complete blocks of 2..4 nodes, gains in [1, 2] and frequencies in
    [-0.05, 0.05] summing to about zero in each, joined by the edge
    (na, na + 1) at a gain 10^-k, k = 0..14, times the block gains."""
    na, nb = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n = na + nb
    i, j = np.triu_indices(n, 1)
    gains = draw(arrays(float, len(i), elements=st.floats(1.0, 2.0)))
    gains[(i < na) != (j < na)] = 0.0
    link = edge_index(n, na - 1, na)
    gains[link] = 10.0 ** -draw(st.integers(0, 14)) * draw(st.floats(1.0, 2.0))
    omega = draw(arrays(float, n, elements=st.floats(-0.05, 0.05)))
    omega[:na] -= omega[:na].mean()
    omega[na:] -= omega[na:].mean()
    return gains, link, omega


@settings(max_examples=100, deadline=None)
@given(weak_link_cases())
def test_weak_links_join_their_blocks_at_zero_and_at_a_lock(case):
    gains, link, omega = case
    n = len(omega)
    cut = gains.copy()
    cut[link] = 0.0
    # the link carries no flow at a lock, so the lock with a unit link is
    # the weak link's lock too
    strong = gains.copy()
    strong[link] = 1.0
    x_star = solve_equilibrium(OscillatorNetwork(n, omega, strong))
    assert np.all(np.abs(x_star) < np.pi / 2)
    for x in (np.zeros(len(gains)), x_star):
        for g, verdict in ((gains, SEMISTABLE_CANDIDATE), (cut, INDETERMINATE)):
            net = OscillatorNetwork(n, omega, g)
            assert classify_stability(net, x).classification == verdict
            assert nontangency_rank_test(net, x) == (verdict == SEMISTABLE_CANDIDATE)


def test_invariance_draws_at_a_margin_next_to_pi_over_2():
    net = OscillatorNetwork(6, np.zeros(6), np.ones(15))
    report = invariance_certificate(net, n_samples=10, horizon=1.0, margin=np.pi / 2 - 1e-4, seed=0)
    assert report.n_samples == 10 and report.passed


def test_invariance_margin_validation():
    # a negative margin would draw starts outside the box being certified
    net = OscillatorNetwork(3, np.zeros(3), np.ones(3))
    for margin in (np.pi / 2, -0.5, -2.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"margin must lie in \[0, pi/2\)"):
            invariance_certificate(net, n_samples=5, horizon=1.0, margin=margin)


def test_invariance_at_n10_with_1000_samples():
    net = OscillatorNetwork(10, np.zeros(10), np.ones(45))
    report = invariance_certificate(net, n_samples=1000, horizon=0.2, seed=0)
    assert report.n_samples == 1000 and report.passed


# The box sampler against the rejection loop it replaced, which draws the
# same distribution (uniform phases in [-pi/2, pi/2]^N with spread below
# pi/2 - margin) at an acceptance rate of about N (w/pi)^(N-1).


def _rejection_oracle(n, n_samples, margin, rng):
    accepted = []
    while sum(a.shape[1] for a in accepted) < n_samples:
        theta = rng.uniform(-np.pi / 2, np.pi / 2, size=(n, 20_000))
        accepted.append(theta[:, np.ptp(theta, axis=0) < np.pi / 2 - margin])
    return np.concatenate(accepted, axis=1)[:, :n_samples]


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_box_sampler_matches_the_rejection_oracle(n):
    draws, margin = 4000, 0.1
    net = OscillatorNetwork(n, np.zeros(n), np.ones(n * (n - 1) // 2))
    exact = _sample_box_states(net, draws, margin, np.random.default_rng(100 + n))
    oracle = _rejection_oracle(n, draws, margin, np.random.default_rng(200 + n))
    bound = 1.949 * np.sqrt(2.0 / draws)  # KS critical value at alpha = 0.001

    def marginals(theta):
        return {"spread": np.ptp(theta, axis=0), "theta_0": theta[0],
                "min": theta.min(axis=0), "theta_N - theta_0": theta[-1] - theta[0]}

    got, want = marginals(exact), marginals(oracle)
    for name in got:
        assert _ks_statistic(got[name], want[name]) < bound, name


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200), margin=st.floats(0.0, np.pi / 2, exclude_max=True),
       n_samples=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_box_sampler_draws_inside_the_shrunken_box(n, margin, n_samples, seed):
    net = OscillatorNetwork(n, np.zeros(n), np.ones(n * (n - 1) // 2))
    theta = _sample_box_states(net, n_samples, margin, np.random.default_rng(seed))
    assert theta.shape == (n, n_samples)
    assert np.all(np.ptp(theta, axis=0) < np.pi / 2 - margin)
    assert np.array_equal(theta, _sample_box_states(net, n_samples, margin, np.random.default_rng(seed)))


@pytest.mark.parametrize("n_samples", [0, -3])
def test_invariance_needs_a_sample(n_samples):
    net = OscillatorNetwork(3, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        invariance_certificate(net, n_samples=n_samples, horizon=1.0)


# Dense edge-space reference for the node-space analysis: the 2e x 2e block
# matrix from ``linearize`` and G restricted to an orthonormal column-space
# basis of B^T. Inside the box every weight k_e cos x_e of G(X) is positive,
# so G(X) has the rank of G with each positive weight set to one; that
# matrix's singular values are 0 or far above the cutoff, so its SVD rank is
# exact, and the in-box verdict and rank test are read off it.


def _unit_weight_full_rank(net):
    """True iff -B^T B diag(k > 0) has rank N-1 on the column space of B^T."""
    b = incidence_matrix(net.n_oscillators).astype(float)
    q, _ = np.linalg.qr(b.T[:, :-1])
    sv = np.linalg.svd((b.T @ b * (net.coupling_gains > 0.0)) @ q, compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0])) == net.n_oscillators - 1 if sv[0] > 0 else False


def _edge_oracle(net, x, tol_zero=1e-9):
    a = linearize(net, x)
    n, e = net.n_oscillators, net.n_edges
    eigs = np.linalg.eigvals(a)
    tol_abs = tol_zero * np.linalg.norm(a, 2)
    b = incidence_matrix(n).astype(float)
    q, _ = np.linalg.qr(b.T[:, :-1])
    gq = a[e:, e:] @ q
    # A = [[0, I], [0, G]] with G of rank at most N-1 has 2e - (N-1) exact
    # zeros; eigvals of the defective A spreads them by about sqrt(eps), so
    # count them from the structure and read the rest of the spectrum off a
    # symmetric matrix: on the column space of B^T, G acts as
    # -B diag(k cos X) B^T on the complement of the ones vector, which the
    # first N-1 edges, (0, j), span.
    u, _ = np.linalg.qr(b[:, : n - 1])
    laplacian = (b * (net.coupling_diag * np.cos(x))) @ b.T
    symmetric = -np.linalg.eigvalsh(u.T @ laplacian @ u)
    n_zero = 2 * e - (n - 1) + int(np.sum(np.abs(symmetric) < tol_abs))
    full_rank = _unit_weight_full_rank(net)
    if np.all(np.abs(x) < np.pi / 2):
        classification = SEMISTABLE_CANDIDATE if full_rank else INDETERMINATE
    elif np.any(symmetric > tol_abs):
        classification = UNSTABLE
    else:
        classification = INDETERMINATE
    return {
        "eigs": eigs,
        "restricted": np.linalg.eigvals(q.T @ gq),
        "n_zero": n_zero,
        "classification": classification,
        "zero_tolerance": tol_abs,
        "full_rank": full_rank,
    }


# a weak edge inside the box: weight 1e-12, below the zero tolerance
WEAK_EDGE = (OscillatorNetwork(2, [0.0, 0.0], [0.01]), np.array([np.pi / 2 - 1e-10]))
# a path 1 - 2 - 3 whose bridge has weight 1e-12 next to 1
WEAK_BRIDGE = (
    OscillatorNetwork(3, np.zeros(3), [1.0, 0.0, 1.0]),
    np.array([np.pi / 2 - 1e-12, 0.0, 0.0]),
)


def _clear_of(values, cutoff, band=4.0):
    """True when no |value| lies within a factor ``band`` of ``cutoff``, so
    round-off between two LAPACK routes cannot flip a threshold decision."""
    v = np.abs(values)
    return not np.any((v > cutoff / band) & (v < cutoff * band))


@st.composite
def edge_cases(draw, box=np.pi, max_n=8):
    """A network on N = 2..max_n with some zero gains and an edge vector X
    with |x_i| < box."""
    n = draw(st.integers(2, max_n))
    e = n * (n - 1) // 2
    omega = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    gain = st.one_of(st.just(0.0), st.floats(0.01, 20.0))
    gains = draw(arrays(float, e, elements=gain))
    bound = np.nextafter(box, 0.0)
    x = draw(arrays(float, e, elements=st.floats(-bound, bound)))
    return OscillatorNetwork(n, omega, gains), x


@settings(max_examples=300, deadline=None)
@given(edge_cases())
def test_laplacian_spectrum_matches_the_edge_spectrum(case):
    net, x = case
    report = classify_stability(net, x)
    oracle = _edge_oracle(net, x)
    scale = 1.0 + oracle["zero_tolerance"] / 1e-9
    restricted = np.sort_complex(oracle["restricted"])
    assert np.max(np.abs(restricted.imag)) < 1e-9 * scale
    assert np.max(np.abs(report.g_restricted_eigenvalues - restricted.real)) < 1e-12 * scale
    # every nonzero eigenvalue of the block matrix is a restricted one
    big = oracle["eigs"][np.abs(oracle["eigs"]) > 1e-6 * scale]
    for z in big:
        assert np.min(np.abs(report.eigenvalues - z)) < 1e-9 * scale
    assert report.eigenvalues.shape == (2 * net.n_edges,)
    assert np.count_nonzero(report.eigenvalues) <= net.n_oscillators - 1


@settings(max_examples=300, deadline=None)
@given(edge_cases())
@example(WEAK_EDGE)
@example(WEAK_BRIDGE)
def test_classification_matches_the_edge_oracle(case):
    net, x = case
    report = classify_stability(net, x)
    oracle = _edge_oracle(net, x)
    tol = oracle["zero_tolerance"]
    assume(_clear_of(oracle["eigs"], tol) and _clear_of(oracle["eigs"].real, tol))
    assume(_clear_of(report.g_restricted_eigenvalues, report.zero_tolerance))
    assert report.zero_tolerance == pytest.approx(tol, rel=1e-12)
    assert report.n_zero == oracle["n_zero"]
    assert report.classification == oracle["classification"]


@settings(max_examples=300, deadline=None)
@given(edge_cases(box=np.pi / 2))
@example(WEAK_EDGE)
@example(WEAK_BRIDGE)
def test_nontangency_rank_matches_the_edge_svd_rank(case):
    net, x = case
    assert nontangency_rank_test(net, x) == _edge_oracle(net, x)["full_rank"]


@settings(max_examples=200, deadline=None)
@given(edge_cases(), st.floats(1e-10, 1e-6))
def test_returned_equilibrium_meets_the_edge_residual(case, tol):
    net, _ = case
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phaselock.analysis, "NEWTON_TOL", tol)
            x = solve_equilibrium(net)
    except (NoEquilibriumError, SingularJacobianError):
        return
    b = incidence_matrix(net.n_oscillators).astype(float)
    residual = b.T @ net.natural_frequencies - b.T @ b @ (net.coupling_diag * np.sin(x))
    assert np.max(np.abs(residual)) < tol
    assert np.allclose(b.T @ np.linalg.lstsq(b.T, x, rcond=None)[0], x, atol=1e-12)


def test_analysis_at_n200_leaves_the_incidence_unbuilt(monkeypatch):
    forbid_incidence(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("an analysis path ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    n = 200
    e = n * (n - 1) // 2
    net = OscillatorNetwork(n, np.linspace(-1.0, 1.0, n), np.full(e, 300.0))
    x_star = solve_equilibrium(net)
    report = classify_stability(net, x_star)
    coupling_bounds(net)
    assert report.classification == SEMISTABLE_CANDIDATE
    assert report.n_zero == 2 * e - (n - 1)
    assert nontangency_rank_test(net, x_star)


# Edge-space views through the edge endpoints against the dense incidence
# formulas they replaced.


def _check_edge_views(net, x, theta):
    """The edge views, V2 and its rate along a three-step trajectory whose
    phases ``theta`` (3, N) double as its frequencies, and ``in_set_h``,
    against the dense incidence formulas."""
    n = net.n_oscillators
    b = incidence_matrix(n).astype(float)
    btb = b.T @ b
    traj = Trajectory(times=np.arange(3.0), thetas=wrap_phase(theta), theta_dots=theta)
    assert np.array_equal(traj.edge_x(net), wrap_phase(traj.thetas @ b))
    assert np.array_equal(traj.edge_v(net), traj.theta_dots @ b)

    xs, vs = traj.edge_x(net), traj.edge_v(net)
    weighted = (net.coupling_diag * np.cos(xs)) * vs
    v2, v2_dot = lyapunov_v2_along(traj, net)
    terms = np.abs(vs) * (np.abs(weighted) @ np.abs(btb))
    dense = -np.sum(vs * (weighted @ btb.T), axis=1)
    # a subnormal product rounds in absolute steps of the smallest
    # subnormal s, which the rate then scales by N k_e = gain_e
    floor = 2 * net.n_edges * (1 + net.coupling_gains.max()) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(v2_dot - dense) <= 1e-12 * terms.sum(axis=1) + floor)
    assert np.array_equal(v2, 0.5 * np.sum(vs * vs, axis=1))

    # a phase-difference vector B^T theta with its consistent frequencies
    xc = b.T @ theta[0]
    v_dense = b.T @ net.natural_frequencies - btb @ (net.coupling_diag * np.sin(xc))
    member = in_set_h(EdgeState(xc, v_dense), net)
    assert member.in_colspace and member.v_consistent
    assert not in_set_h(EdgeState(xc, v_dense + 1e-6), net).v_consistent
    # an arbitrary X, on whichever side of the tolerance it clearly lies
    residual = np.linalg.norm(x - btb @ x / n)
    if residual > 1e-6 or residual < 1e-12:
        member = in_set_h(EdgeState(x, np.zeros_like(x)), net)
        assert member.in_colspace == (residual < 1e-12)


@settings(max_examples=200, deadline=None)
@given(edge_cases(max_n=12), st.data())
def test_edge_views_match_the_dense_incidence(case, data):
    net, x = case
    theta = data.draw(arrays(float, (3, net.n_oscillators), elements=st.floats(-10.0, 10.0)))
    _check_edge_views(net, x, theta)


def test_edge_views_match_the_dense_incidence_on_subnormal_products():
    # the dense rate rounds to -5e-324 where lyapunov_v2_along gives -0,
    # and 1e-12 times the subnormal term sum is 0
    a = 9.46e-163
    net = OscillatorNetwork(2, [0.0, 0.0], [3.0])
    _check_edge_views(net, np.zeros(1), np.array([[a, 0.0], [0.0, a], [a, a]]))


@settings(max_examples=200, deadline=None)
@given(edge_cases(max_n=12))
def test_g_matrix_matches_the_dense_incidence(case):
    net, x = case
    b = incidence_matrix(net.n_oscillators).astype(float)
    dense = -(b.T @ b) @ np.diag(net.coupling_diag * np.cos(x))
    assert np.array_equal(g_matrix(x, net), dense)
    assert np.array_equal(linearize(net, x)[net.n_edges:, net.n_edges:], dense)


def test_in_set_h_at_n200_stays_small(traced_peak):
    n = 200
    omega = np.linspace(-1.0, 1.0, n)
    net = OscillatorNetwork(n, omega, np.full(n * (n - 1) // 2, 300.0))
    i, j = np.triu_indices(n, 1)
    theta = np.linspace(-0.2, 0.2, n)
    x = theta[i] - theta[j]
    k_sin = net.coupling_diag * np.sin(x)
    by = np.bincount(i, k_sin, n) - np.bincount(j, k_sin, n)
    v = (omega[i] - omega[j]) - (by[i] - by[j])
    member, peak = traced_peak(in_set_h, EdgeState(x, v), net)
    assert member.in_box and member.in_colspace and member.v_consistent
    assert peak < 50e6, f"in_set_h peak {peak / 1e6:.1f} MB"


# The streamed certificate verdict against an oracle over stored steps: the
# certificate's trajectories, recomputed by simulate_many from the starts it
# samples.


@st.composite
def certificate_cases(draw):
    """A network on N = 2..5 with gains at 0.3-1.2x the sufficient
    thresholds (0.1 on zero-mismatch edges) and a mean frequency that may
    carry the phases across +-pi."""
    n = draw(st.integers(2, 5))
    omega = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    omega = omega + draw(st.sampled_from([0.0, 3.0, -5.0]))
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)))
    gains = np.where(bounds > 1e-12, draw(st.floats(0.3, 1.2)) * bounds, 0.1)
    return OscillatorNetwork(n, omega, gains), draw(st.integers(0, 2**16))


def _stored_trajectories(net, n_samples, horizon, dt, seed):
    # 0.1 is the certificate's default margin
    theta0s = _sample_box_states(net, n_samples, 0.1, np.random.default_rng(seed))
    return simulate_many(net, theta0s, horizon, dt)


def _stored_verdict(trajectories, net):
    return sum(bool(np.all(np.abs(t.edge_x(net)) < np.pi / 2)) for t in trajectories)


def _check_counts(report, n_stayed):
    assert report.n_stayed == n_stayed
    assert report.fraction == n_stayed / report.n_samples
    assert report.passed == (n_stayed == report.n_samples)


@settings(max_examples=40, deadline=None)
@given(certificate_cases())
def test_streamed_certificate_matches_the_stored_oracle(case):
    net, seed = case
    streamed = invariance_certificate(net, n_samples=12, horizon=2.0, dt=0.02, seed=seed)
    stored = _stored_trajectories(net, 12, 2.0, 0.02, seed)
    _check_counts(streamed, _stored_verdict(stored, net))


def test_streamed_certificate_partial_escape_across_the_wrap():
    rng = np.random.default_rng(2)
    n = int(rng.integers(3, 6))
    omega = rng.uniform(-2.0, 2.0, n) + 3.0
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)))
    gains = np.where(bounds > 1e-12, rng.uniform(0.3, 0.9) * bounds, 0.1)
    net = OscillatorNetwork(n, omega, gains)
    streamed = invariance_certificate(net, n_samples=30, horizon=2.0, dt=0.02, seed=2)
    stored = _stored_trajectories(net, 30, 2.0, 0.02, 2)
    assert 0 < streamed.n_stayed < 30
    _check_counts(streamed, _stored_verdict(stored, net))
    # the stored phases wrap at +-pi during the run
    jumps = [np.max(np.abs(np.diff(t.thetas, axis=0))) for t in stored]
    assert max(jumps) > np.pi


def test_streamed_certificate_counts_the_survivors_of_staggered_escapes():
    # below the thresholds, 8 of 20 samples escape at steps 10 to 36
    omega = np.linspace(-1.0, 1.0, 3)
    net = OscillatorNetwork(3, omega, 0.5 * sufficient_gain_bounds(
        OscillatorNetwork(3, omega, np.ones(3))))
    streamed = invariance_certificate(net, n_samples=20, horizon=1.0, dt=0.02, seed=0)
    stored = _stored_trajectories(net, 20, 1.0, 0.02, 0)
    assert _stored_verdict(stored, net) == 12
    _check_counts(streamed, 12)


def _wrapped_pairwise_verdict(theta):
    """Reference judge: every wrapped difference of the wrapped phases of a
    column lies in the open box (the ``Trajectory.edge_x`` formula)."""
    w = wrap_phase(theta)
    i, j = np.triu_indices(theta.shape[0], 1)
    return np.all(np.abs(wrap_phase(w[i] - w[j])) < np.pi / 2, axis=0)


@st.composite
def phase_columns(draw):
    """(N, m) node phases with raw spread below pi per column: inside the
    box, spread over the circle, or nudged to the face, each shifted by a
    multiple of 2 pi, across +-pi, or out to |theta| ~ 1e6."""
    n, m = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(["box", "circle", "face"]))
        if kind == "box":
            spread = draw(st.floats(0.0, np.pi / 2, exclude_max=True))
        elif kind == "circle":
            spread = draw(st.floats(0.0, 3.1))
        else:
            nudge = draw(st.sampled_from([1e-15, 1e-13, 2e-12, 1e-10, 1e-6]))
            spread = np.pi / 2 + draw(st.sampled_from([-1, 1])) * nudge
        offsets = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
        offsets[:2] = 0.0, 1.0
        shift = draw(
            st.sampled_from([0.0, np.pi - spread / 2, -np.pi - spread / 2])
            | st.integers(-1000, 1000).map(lambda k: 2.0 * np.pi * k)
            | st.floats(-1e6, 1e6)
        )
        columns.append(draw(st.permutations(list(shift + spread * offsets))))
    return np.array(columns).T


@settings(max_examples=300, deadline=None)
@given(phase_columns())
def test_box_judge_matches_the_wrapped_pairwise_formula(theta):
    assert np.all(np.ptp(theta, axis=0) < np.pi)
    away = np.abs(np.ptp(theta, axis=0) - np.pi / 2) > 1e-12
    judged = phaselock.analysis._stays_in_box(theta)
    assert np.array_equal(judged[away], _wrapped_pairwise_verdict(theta)[away])


def test_box_judge_counts_a_difference_past_the_far_face_as_escaped():
    # wrapped, the difference 2 pi - 1.2 reads -1.2, inside the box
    theta = np.array([[0.0], [2.0 * np.pi - 1.2]])
    assert _wrapped_pairwise_verdict(theta)[0]
    assert not phaselock.analysis._stays_in_box(theta)[0]


def test_certificate_counts_a_full_turn_in_one_step_as_escaped():
    # uncoupled, one step turns the difference of the pair by 2 pi: each
    # sample leaves the box and comes back to its start modulo 2 pi
    net = OscillatorNetwork(2, [0.0, 2.0 * np.pi], [0.0])
    report = invariance_certificate(net, n_samples=10, horizon=1.0, dt=1.0, seed=0)
    assert report.n_stayed == 0
    stored = _stored_trajectories(net, 10, 1.0, 1.0, 0)
    assert _stored_verdict(stored, net) == 10


def test_certificate_blow_up_raises_divergence():
    # equal frequencies keep every sample locked while the phases leave the
    # float range: the exact state at step 3 (t = 1.5 s) is 2.55e308
    net = OscillatorNetwork(2, [1.7e308, 1.7e308], [1.0])
    with warnings.catch_warnings(), pytest.raises(DivergenceError) as info:
        warnings.simplefilter("error")  # the error is the only signal
        invariance_certificate(net, n_samples=5, horizon=2.0, dt=0.5, seed=0)
    assert info.value.step == 3


def _escape_steps(net, n_samples, horizon, dt, seed):
    """Full-horizon oracle: per sample, the first step whose phase spread
    reaches pi/2, or -1 where it never does."""
    theta0s = _sample_box_states(net, n_samples, 0.1, np.random.default_rng(seed))
    escaped = np.full(n_samples, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, theta, _ in _rk4_steps(net, theta0s, round(horizon / dt), dt):
            escaped[(escaped < 0) & (np.ptp(theta, axis=0) >= np.pi / 2)] = k
    return escaped


def test_certificate_stops_at_the_step_its_last_sample_escapes(monkeypatch):
    # below the thresholds every sample escapes, the last one at step k
    omega = np.linspace(-1.0, 1.0, 3)
    net = OscillatorNetwork(3, omega, [0.2, 0.0, 0.2])
    k = _escape_steps(net, 20, 5.0, 0.02, 0).max()
    assert 1 < k < 250
    calls = []
    field = phaselock.dynamics.theta_dot

    def counting(theta, net):
        calls.append(1)
        return field(theta, net)

    monkeypatch.setattr(phaselock.dynamics, "theta_dot", counting)
    report = invariance_certificate(net, n_samples=20, horizon=5.0, dt=0.02, seed=0)
    assert report.n_stayed == 0 and not report.passed
    assert len(calls) == 1 + 4 * k


@st.composite
def offset_certificate_cases(draw):
    """Networks of 2 to 12 oscillators whose mean frequency is offset by up
    to 20 rad/s, at 0.3 to 1.5 times their sufficient gains."""
    n = draw(st.integers(2, 12))
    omega = draw(arrays(float, n, elements=st.floats(-2.0, 2.0))) + draw(st.floats(-20.0, 20.0))
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)))
    gains = np.where(bounds > 1e-12, draw(st.floats(0.3, 1.5)) * bounds, 0.1)
    return OscillatorNetwork(n, omega, gains), draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(offset_certificate_cases())
def test_stopped_certificate_counts_what_the_full_horizon_counts(case):
    net, seed = case
    report = invariance_certificate(net, n_samples=12, horizon=2.0, dt=0.02, seed=seed)
    _check_counts(report, int(np.sum(_escape_steps(net, 12, 2.0, 0.02, seed) < 0)))


def test_certificate_peak_memory_at_n10_stays_below_8mb(traced_peak):
    rng = np.random.default_rng(10)
    omega = rng.uniform(-1.0, 1.0, 10)
    bounds = sufficient_gain_bounds(OscillatorNetwork(10, omega, np.ones(45)))
    net = OscillatorNetwork(10, omega, 1.2 * bounds)
    report, peak = traced_peak(invariance_certificate, net, n_samples=400, horizon=5.0, seed=0)
    assert report.passed
    assert peak < 8e6, f"certificate peak {peak / 1e6:.1f} MB"


def _escaping_ring1000():
    """A ring at gain 5N far below its thresholds: every sample leaves the
    box in the first step."""
    n = 1000
    i = np.arange(n - 1)
    gains = np.zeros(n * (n - 1) // 2)
    gains[i * (2 * n - i - 1) // 2] = 5.0 * n  # edges (i, i + 1)
    gains[n - 2] = 5.0 * n  # edge (0, n - 1)
    omega = np.random.default_rng(1000).uniform(-50.0, 50.0, n)
    return OscillatorNetwork(n, omega, gains)


def test_escaping_certificate_at_n1000_peaks_below_20mb(traced_peak):
    # one (40, e) array of edge differences is 160 MB
    net = _escaping_ring1000()
    report, peak = traced_peak(
        invariance_certificate, net, n_samples=40, horizon=0.01, dt=0.01, seed=0
    )
    assert report.n_stayed == 0
    assert peak < 20e6, f"certificate peak {peak / 1e6:.1f} MB"


def test_certificate_checks_the_gain_bounds_without_an_edge_array(traced_peak):
    # one e-long float array is 4 MB at N = 1000; the bounds are compared
    # one block of edges at a time
    net = _escaping_ring1000()
    report, peak = traced_peak(
        invariance_certificate, net, n_samples=1, horizon=0.01, dt=0.01, seed=0
    )
    assert not report.bounds_met
    assert report.bounds_met == bool(
        np.all(net.coupling_gains >= sufficient_gain_bounds(net) - 1e-12)
    )
    assert peak < 1e6, f"certificate peak {peak / 1e6:.2f} MB"


def test_certificate_takes_one_frame_for_every_block(monkeypatch):
    frames = []

    def counted(net, frame=phaselock.analysis._frame):
        frames.append(net)
        return frame(net)

    monkeypatch.setattr(phaselock.analysis, "_frame", counted)
    n = 100
    net = OscillatorNetwork(
        n, np.random.default_rng(0).uniform(-0.1, 0.1, n), np.full(n * (n - 1) // 2, float(n))
    )
    assert net.n_edges > 2 * _BLOCK_VALUES  # three blocks of edges
    report = invariance_certificate(net, n_samples=4, horizon=0.01, dt=0.01, seed=0)
    assert report.bounds_met
    assert len(frames) == 1


_TOP = np.finfo(float).max


@st.composite
def blocked_networks(draw):
    """Networks on N = 2..6, or on N = 65..100 with two or three blocks of
    edges, whose gains sit at their thresholds shifted by values from the
    whole float range, so a block may fail alone and the frame may be
    above 1."""
    n = draw(st.integers(2, 6) | st.integers(65, 100))
    e = n * (n - 1) // 2
    omega = draw(arrays(float, n, elements=_WHOLE_RANGE, fill=_WHOLE_RANGE))
    shifts = _WHOLE_RANGE | st.sampled_from([-1e-12, -2e-12])
    shift = draw(arrays(float, e, elements=shifts, fill=st.just(0.0)))
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.zeros(e)))
    with np.errstate(over="ignore"):
        gains = np.clip(bounds + shift, 0.0, _TOP)
    return OscillatorNetwork(n, omega, gains)


@settings(max_examples=100, deadline=None)
@given(blocked_networks())
@example(OscillatorNetwork(70, np.linspace(-1.0, 1.0, 70), np.full(2415, _TOP)))
@example(OscillatorNetwork(70, np.linspace(-1.0, 1.0, 70), np.r_[np.full(2414, _TOP), 0.0]))
def test_blockwise_bounds_met_matches_the_whole_array(net):
    # no step is taken: at these values a state may overflow, which the
    # certificate reports by raising DivergenceError
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phaselock.analysis, "_rk4_steps", lambda *args: iter(()))
        report = invariance_certificate(net, n_samples=1, horizon=0.01, dt=0.01, seed=0)
    assert report.bounds_met == bool(
        np.all(net.coupling_gains >= sufficient_gain_bounds(net) - 1e-12)
    )


# A sync verdict means the frequency differences die out: with every gain
# at 1.5x its sufficient threshold the box is invariant, so along a run
# started in it V2 = |V|^2 / 2 never grows and is below SYNC_TOL^2 once the
# sync window closes.


@st.composite
def sync_cases(draw):
    """A complete graph on N = 2..6 with distinct frequencies, gains at 1.5x
    the per-edge thresholds, and phases spread less than pi/2."""
    n = draw(st.integers(2, 6))
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.1, 1.0)))
    omega = np.concatenate([[0.0], np.cumsum(gaps)]) + draw(st.floats(-5.0, 5.0))
    omega = draw(st.permutations(list(omega)))
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)))
    net = OscillatorNetwork(n, omega, 1.5 * bounds)
    theta0 = draw(arrays(float, n, elements=st.floats(0.0, 1.5))) + draw(st.floats(-3.0, 3.0))
    return net, theta0


@settings(max_examples=25, deadline=None)
@given(sync_cases())
def test_sync_verdict_means_the_frequency_differences_vanish(case):
    net, theta0 = case
    traj = simulate(net, theta0, 200.0, 0.01, stop_on_sync=True)
    assert traj.synchronized_at is not None
    v2, _ = lyapunov_v2_along(traj, net)
    # round-off in each edge frequency difference is a few ulps of the
    # largest rate, so |V| may wobble by that much and V2 by |V| times it
    scale = 1.0 + np.max(np.abs(net.natural_frequencies)) + np.max(net.coupling_gains)
    speed = np.sqrt(2.0 * v2)
    assert np.all(np.diff(v2) <= 1e-13 * scale * (speed[1:] + speed[:-1]))
    assert v2[-1] < SYNC_TOL**2


# The Newton solver before it stepped on the complement of the ones vector:
# the last phase pinned and a least-squares step from the SVD of the
# grounded Laplacian block, built here from the dense incidence. It is the
# reference the eigendecomposition step must reproduce to round-off.


def _svd_newton_oracle(net, theta_guess=None, tol=1e-12):
    n = net.n_oscillators
    b = incidence_matrix(n).astype(float)
    theta = np.zeros(n) if theta_guess is None else np.array(theta_guess, dtype=float)
    theta = theta - theta[-1]
    scale = max(1.0, float(np.max(net.coupling_gains)))
    for _ in range(100):
        x = b.T @ theta
        f = theta_dot(theta, net)
        if f.max() - f.min() < tol:
            return x
        lap = b @ np.diag(net.coupling_diag * np.cos(x)) @ b.T
        u, sv, vt = np.linalg.svd(lap[:, :-1], full_matrices=False)
        if np.sqrt(n) * sv[0] < 1e-12 * scale or sv[-1] < RANK_TOL * sv[0]:
            raise SingularJacobianError("rank-deficient")
        theta[:-1] += vt.T @ ((u.T @ (f - f.mean())) / sv)
    raise NoEquilibriumError("no convergence")


@st.composite
def locked_cases(draw):
    """A complete graph on N = 2..10 with distinct frequencies, each gain
    between 1.2x and 3x its per-edge sufficient threshold, and either no
    guess or one with phase spread below pi/2."""
    n = draw(st.integers(2, 10))
    e = n * (n - 1) // 2
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.05, 1.0)))
    omega = np.concatenate([[0.0], np.cumsum(gaps)]) + draw(st.floats(-5.0, 5.0))
    omega = np.array(draw(st.permutations(list(omega))))
    factors = draw(arrays(float, e, elements=st.floats(1.2, 3.0)))
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(e)))
    net = OscillatorNetwork(n, omega, factors * bounds)
    guess = draw(st.one_of(st.none(), arrays(float, n, elements=st.floats(-0.75, 0.75))))
    return net, guess


@settings(max_examples=300, deadline=None)
@given(locked_cases())
def test_newton_matches_the_svd_oracle(case):
    net, guess = case
    assert is_connected(net)
    try:
        want = _svd_newton_oracle(net, guess)
    except (NoEquilibriumError, SingularJacobianError):
        return
    assume(np.all(np.abs(want) < np.pi / 2))
    got = solve_equilibrium(net, theta_guess=guess)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert classify_stability(net, got).classification == (
        classify_stability(net, want).classification
    )


def test_newton_builds_the_complement_basis_once_per_solve():
    _complement_basis.cache_clear()
    four = OscillatorNetwork(4, [0.0, 0.3, 0.6, 1.0], np.full(6, 4.0))
    for net in (CHAIN, four, CHAIN):
        before = _complement_basis.cache_info()
        solve_equilibrium(net)
        after = _complement_basis.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits > before.hits
    assert not _complement_basis(3).flags.writeable


# The classification before it read the N-1 restricted eigenvalues alone:
# a mask over the whole 2e-long spectrum outside the box, applied to the
# report's own spectrum and tolerance, with no band; inside the box the
# unit-weight rank of the edge oracle.


def _mask_verdict(net, report):
    if np.all(np.abs(report.equilibrium_x) < np.pi / 2):
        return SEMISTABLE_CANDIDATE if _unit_weight_full_rank(net) else INDETERMINATE
    return UNSTABLE if np.any(report.eigenvalues.real > report.zero_tolerance) else INDETERMINATE


@settings(max_examples=300, deadline=None)
@given(edge_cases())
@example(WEAK_EDGE)
@example(WEAK_BRIDGE)
def test_verdict_matches_the_full_spectrum_mask(case):
    net, x = case
    report = classify_stability(net, x)
    assert report.classification == _mask_verdict(net, report)


@settings(max_examples=100, deadline=None)
@given(locked_cases(), st.data())
def test_lock_verdict_matches_the_full_spectrum_mask(case, data):
    net, guess = case
    try:
        x_star = solve_equilibrium(net, theta_guess=guess)
    except (NoEquilibriumError, SingularJacobianError):
        return
    # half a turn on one node moves its edges across the box face
    node = data.draw(st.integers(0, net.n_oscillators - 1))
    turned = wrap_phase(x_star + np.pi * incidence_matrix(net.n_oscillators)[node])
    for x in (x_star, turned):
        report = classify_stability(net, x)
        assert report.classification == _mask_verdict(net, report)


@settings(max_examples=200, deadline=None)
@given(edge_cases(max_n=12), st.data())
def test_v2_rate_is_never_positive_inside_the_box(case, data):
    net, _ = case
    n = net.n_oscillators
    # phase spread below pi/2 puts every edge difference in the box
    thetas = data.draw(arrays(float, (4, n), elements=st.floats(-0.78, 0.78)))
    dots = data.draw(arrays(float, (4, n), elements=st.floats(-1e3, 1e3)))
    traj = Trajectory(times=np.arange(4.0), thetas=thetas, theta_dots=dots)
    assert np.all(np.abs(traj.edge_x(net)) < np.pi / 2)
    _, v2_dot = lyapunov_v2_along(traj, net)
    assert np.all(v2_dot <= 0.0)


@pytest.mark.parametrize(
    "net",
    [
        OscillatorNetwork(6, 0.1 * np.arange(6), np.full(15, 1e200)),
        OscillatorNetwork(3, [0.0, 0.5, 1.0], np.full(3, 1e160)),
    ],
    ids=["n6-1e200", "n3-1e160"],
)
def test_huge_gains_keep_a_finite_zero_tolerance(net):
    n, e = net.n_oscillators, net.n_edges
    report = classify_stability(net, solve_equilibrium(net))
    # |A|_2 = N w at x = 0 for uniform weights w = gain / N
    assert report.zero_tolerance == pytest.approx(ZERO_TOL * net.coupling_gains[0], rel=1e-12)
    assert report.n_zero == 2 * e - (n - 1)
    assert report.classification == SEMISTABLE_CANDIDATE


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda net, x: g_matrix(x, net), "x"),
        (linearize, "x_star"),
        (classify_stability, "x_star"),
        (nontangency_rank_test, "x"),
    ],
    ids=["g_matrix", "linearize", "classify_stability", "nontangency_rank_test"],
)
@pytest.mark.parametrize(
    "x, problem",
    [
        ([0.1], r"must have shape \(3,\)"),
        ([0.1, 0.2], r"must have shape \(3,\)"),
        ([[0.1, 0.2, 0.3]], r"must have shape \(3,\)"),
        ([np.nan, 0.0, 0.0], "must be finite"),
        ([0.0, np.inf, 0.0], "must be finite"),
        ([0.0, 0.0, -np.inf], "must be finite"),
    ],
    ids=["one", "two", "row", "nan", "inf", "-inf"],
)
def test_edge_vector_inputs_are_checked(call, name, x, problem):
    with pytest.raises(ValueError, match=f"^{name} {problem}$"):
        call(CHAIN, x)


# The exact locking threshold of a complete graph at uniform gain K, for
# theta_dot_i = omega_i + (K/N) sum_j sin(theta_j - theta_i) (Verwoerd &
# Mason, SIAM J. Appl. Dyn. Syst. 2008): with w = omega - mean(omega),
# K_c = N u* / sum_i sqrt(1 - (w_i/u*)^2), where u* in [|w|_inf, 2 |w|_inf]
# solves 2 sum_i sqrt(1 - (w_i/u)^2) = sum_i 1/sqrt(1 - (w_i/u)^2).


def _critical_gain(omega):
    w = omega - omega.mean()
    lo = np.max(np.abs(w))
    hi = 2.0 * lo

    def excess(u):
        root = np.sqrt(1.0 - (w / u) ** 2)
        with np.errstate(divide="ignore"):  # w_i / u rounds to +-1 next to lo
            return 2.0 * root.sum() - (1.0 / root).sum()

    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # bisect to adjacent floats
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return len(w) * hi / np.sqrt(1.0 - (w / hi) ** 2).sum()


def _uniform_net(omega, gain):
    n = len(omega)
    return OscillatorNetwork(n, omega, np.full(n * (n - 1) // 2, gain))


def test_critical_gain_of_two_oscillators_is_their_mismatch():
    assert _critical_gain(np.array([0.7, -0.3])) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [3, 10, 50, 200])
def test_newton_locks_just_above_the_critical_gain(n, seed):
    omega = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    net = _uniform_net(omega, _critical_gain(omega) * (1.0 + 1e-9))
    assert np.all(np.isfinite(solve_equilibrium(net)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 10, 50])
def test_newton_finds_no_lock_just_below_the_critical_gain(n, seed):
    omega = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    with pytest.raises(NoEquilibriumError):
        solve_equilibrium(_uniform_net(omega, _critical_gain(omega) * (1.0 - 1e-6)))


@pytest.mark.parametrize("n", [3, 5, 10, 20, 50])
def test_locks_above_the_critical_gain_are_stable(n):
    # every nonzero eigenvalue is clearly negative, so only the box can
    # keep a lock from being a semistable candidate
    rng = np.random.default_rng(100 + n)
    for omega in (rng.uniform(-1.0, 1.0, n), rng.normal(0.0, 1.0, n)):
        for factor in (1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.1, 1.5):
            net = _uniform_net(omega, _critical_gain(omega) * factor)
            x = solve_equilibrium(net)
            report = classify_stability(net, x)
            assert np.all(report.g_restricted_eigenvalues.real < -report.zero_tolerance)
            in_box = np.max(np.abs(x)) < np.pi / 2
            assert report.classification == (SEMISTABLE_CANDIDATE if in_box else INDETERMINATE)


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(2, 40), elements=st.floats(-10.0, 10.0)))
def test_critical_gain_lies_between_k0_and_the_frequency_spread(omega):
    assume(np.ptp(omega) > 1e-3)
    k_c = _critical_gain(omega)
    k0 = uniform_critical_gain(_uniform_net(omega, 1.0))
    assert k0 <= k_c * (1.0 + 1e-12)
    assert k_c <= np.ptp(omega) * (1.0 + 1e-12)
    gain = k_c * (1.0 + 1e-9)
    assert np.all(onset_lower_bounds(_uniform_net(omega, gain)) <= gain)
