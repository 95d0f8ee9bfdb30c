"""Equilibria, spectra, gain bounds, invariant sets, Lyapunov diagnostics."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from phaselock.dynamics import SYNC_TOL

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


def test_onset_lower_at_uniform_threshold():
    # with every gain at the uniform threshold, the tightest edge sits
    # exactly at its onset value
    net5 = OscillatorNetwork(5, np.arange(1.0, 6.0), np.full(10, 2.5))
    onset = onset_lower_bounds(net5)
    mismatch = np.abs(incidence_matrix(5).T @ net5.natural_frequencies)
    tightest = int(np.argmax(mismatch))
    assert onset[tightest] == pytest.approx(2.5, abs=1e-12)
    assert np.all(onset >= 0)


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


def test_lyapunov_v3_values():
    assert lyapunov_v3(np.zeros(3), 3) == pytest.approx(-np.pi)
    assert lyapunov_v3(np.full(3, np.pi / 2), 3) == pytest.approx(np.pi / 2)
    stacked = lyapunov_v3(np.zeros((4, 3)), 3)
    assert stacked.shape == (4,)


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


def test_invariance_certificate_deterministic_and_keeps_trajectories():
    net = OscillatorNetwork(3, [1.0, 1.5, 2.0], np.full(3, 3.0))
    r1 = invariance_certificate(net, n_samples=20, horizon=5.0, seed=7, keep_trajectories=True)
    r2 = invariance_certificate(net, n_samples=20, horizon=5.0, seed=7, keep_trajectories=True)
    assert len(r1.trajectories) == 20
    assert np.array_equal(r1.trajectories[0].thetas, r2.trajectories[0].thetas)


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


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("n_samples", [0, -3])
def test_invariance_needs_a_sample(n_samples, keep):
    net = OscillatorNetwork(3, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        invariance_certificate(net, n_samples=n_samples, horizon=1.0, keep_trajectories=keep)


# Dense edge-space reference for the node-space analysis: the 2e x 2e block
# matrix from ``linearize`` and G restricted to an orthonormal column-space
# basis of B^T.


def _edge_oracle(net, x, tol_zero=1e-9):
    a = linearize(net, x)
    e = net.n_edges
    eigs = np.linalg.eigvals(a)
    tol_abs = tol_zero * np.linalg.norm(a, 2)
    q, _ = np.linalg.qr(incidence_matrix(net.n_oscillators).T[:, :-1].astype(float))
    gq = a[e:, e:] @ q
    n_zero = int(np.sum(np.abs(eigs) < tol_abs))
    nonzero = eigs[np.abs(eigs) >= tol_abs]
    if np.any(eigs.real > tol_abs):
        classification = UNSTABLE
    elif (
        np.all(np.abs(x) < np.pi / 2)
        and np.all(nonzero.real < -tol_abs)
        and n_zero == 2 * e - (net.n_oscillators - 1)
    ):
        classification = SEMISTABLE_CANDIDATE
    else:
        classification = INDETERMINATE
    sv = np.linalg.svd(gq, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv[0] > 0 else 0
    return {
        "eigs": eigs,
        "restricted": np.linalg.eigvals(q.T @ gq),
        "n_zero": n_zero,
        "classification": classification,
        "zero_tolerance": tol_abs,
        "full_rank": rank == net.n_oscillators - 1,
        "sv": sv,
    }


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
def test_nontangency_rank_matches_the_edge_svd_rank(case):
    net, x = case
    oracle = _edge_oracle(net, x)
    assume(_clear_of(oracle["sv"], RANK_TOL * oracle["sv"][0]))
    assert nontangency_rank_test(net, x) == oracle["full_rank"]


@settings(max_examples=200, deadline=None)
@given(edge_cases(), st.floats(1e-10, 1e-6))
def test_returned_equilibrium_meets_the_edge_residual(case, tol):
    net, _ = case
    try:
        x = solve_equilibrium(net, tol=tol)
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


@settings(max_examples=200, deadline=None)
@given(edge_cases(max_n=12), st.data())
def test_edge_views_match_the_dense_incidence(case, data):
    net, x = case
    n = net.n_oscillators
    b = incidence_matrix(n).astype(float)
    btb = b.T @ b
    theta = data.draw(arrays(float, (3, n), elements=st.floats(-10.0, 10.0)))
    traj = Trajectory(times=np.arange(3.0), thetas=wrap_phase(theta), theta_dots=theta)
    assert np.array_equal(traj.edge_x(net), wrap_phase(traj.thetas @ b))
    assert np.array_equal(traj.edge_v(net), traj.theta_dots @ b)

    xs, vs = traj.edge_x(net), traj.edge_v(net)
    weighted = (net._k_diag * np.cos(xs)) * vs
    v2, v2_dot = lyapunov_v2_along(traj, net)
    terms = np.abs(vs) * (np.abs(weighted) @ np.abs(btb))
    dense = -np.sum(vs * (weighted @ btb.T), axis=1)
    assert np.all(np.abs(v2_dot - dense) <= 1e-12 * terms.sum(axis=1))
    assert np.array_equal(v2, 0.5 * np.sum(vs * vs, axis=1))

    # a phase-difference vector B^T theta with its consistent frequencies
    xc = b.T @ theta[0]
    v_dense = b.T @ net.natural_frequencies - btb @ (net._k_diag * np.sin(xc))
    member = in_set_h(EdgeState(xc, v_dense), net)
    assert member.in_colspace and member.v_consistent
    assert not in_set_h(EdgeState(xc, v_dense + 1e-6), net).v_consistent
    # an arbitrary X, on whichever side of the tolerance it clearly lies
    residual = np.linalg.norm(x - btb @ x / n)
    if residual > 1e-6 or residual < 1e-12:
        member = in_set_h(EdgeState(x, np.zeros_like(x)), net)
        assert member.in_colspace == (residual < 1e-12)


@settings(max_examples=200, deadline=None)
@given(edge_cases(max_n=12))
def test_g_matrix_matches_the_dense_incidence(case):
    net, x = case
    b = incidence_matrix(net.n_oscillators).astype(float)
    dense = -(b.T @ b) @ np.diag(net.coupling_diag * np.cos(x))
    assert np.array_equal(g_matrix(x, net), dense)
    assert np.array_equal(linearize(net, x)[net.n_edges:, net.n_edges:], dense)


def test_in_set_h_at_n200_stays_small():
    n = 200
    omega = np.linspace(-1.0, 1.0, n)
    net = OscillatorNetwork(n, omega, np.full(n * (n - 1) // 2, 300.0))
    i, j = np.triu_indices(n, 1)
    theta = np.linspace(-0.2, 0.2, n)
    x = theta[i] - theta[j]
    k_sin = net._k_diag * np.sin(x)
    by = np.bincount(i, k_sin, n) - np.bincount(j, k_sin, n)
    v = (omega[i] - omega[j]) - (by[i] - by[j])
    tracemalloc.start()
    try:
        member = in_set_h(EdgeState(x, v), net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member.in_box and member.in_colspace and member.v_consistent
    assert peak < 50e6, f"in_set_h peak {peak / 1e6:.1f} MB"


# The streamed certificate verdict against an oracle over stored steps.


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


def _certificate_fields(report):
    return (report.passed, report.bounds_met, report.n_samples, report.n_stayed,
            report.fraction, report.horizon, report.dt, report.margin, report.seed)


def _stored_verdict(report, net):
    return sum(bool(np.all(np.abs(t.edge_x(net)) < np.pi / 2)) for t in report.trajectories)


@settings(max_examples=40, deadline=None)
@given(certificate_cases())
def test_streamed_certificate_matches_the_stored_oracle(case):
    net, seed = case
    streamed = invariance_certificate(net, n_samples=12, horizon=2.0, dt=0.02, seed=seed)
    stored = invariance_certificate(
        net, n_samples=12, horizon=2.0, dt=0.02, seed=seed, keep_trajectories=True
    )
    assert streamed.trajectories == [] and len(stored.trajectories) == 12
    assert streamed.n_stayed == _stored_verdict(stored, net)
    assert _certificate_fields(streamed) == _certificate_fields(stored)


def test_streamed_certificate_partial_escape_across_the_wrap():
    rng = np.random.default_rng(2)
    n = int(rng.integers(3, 6))
    omega = rng.uniform(-2.0, 2.0, n) + 3.0
    bounds = sufficient_gain_bounds(OscillatorNetwork(n, omega, np.ones(n * (n - 1) // 2)))
    gains = np.where(bounds > 1e-12, rng.uniform(0.3, 0.9) * bounds, 0.1)
    net = OscillatorNetwork(n, omega, gains)
    streamed = invariance_certificate(net, n_samples=30, horizon=2.0, dt=0.02, seed=2)
    stored = invariance_certificate(
        net, n_samples=30, horizon=2.0, dt=0.02, seed=2, keep_trajectories=True
    )
    assert 0 < streamed.n_stayed < 30
    assert streamed.n_stayed == _stored_verdict(stored, net)
    assert _certificate_fields(streamed) == _certificate_fields(stored)
    # the stored phases wrap at +-pi during the run
    jumps = [np.max(np.abs(np.diff(t.thetas, axis=0))) for t in stored.trajectories]
    assert max(jumps) > np.pi


def test_streamed_certificate_gathers_only_after_the_first_escape(monkeypatch):
    # below the thresholds, 8 of 20 samples escape at steps 10 to 36
    omega = np.linspace(-1.0, 1.0, 3)
    net = OscillatorNetwork(3, omega, 0.5 * sufficient_gain_bounds(
        OscillatorNetwork(3, omega, np.ones(3))))
    widths, judge = [], phaselock.analysis._stays_in_box

    def judging(net, theta):
        widths.append(theta.shape[1])
        return judge(net, theta)

    monkeypatch.setattr(phaselock.analysis, "_stays_in_box", judging)
    streamed = invariance_certificate(net, n_samples=20, horizon=1.0, dt=0.02, seed=0)
    monkeypatch.undo()
    stored = invariance_certificate(
        net, n_samples=20, horizon=1.0, dt=0.02, seed=0, keep_trajectories=True
    )
    assert streamed.n_stayed == _stored_verdict(stored, net) == 12
    assert _certificate_fields(streamed) == _certificate_fields(stored)
    # all 20 columns are judged whole until step 10, then only the survivors
    assert widths[:11] == [20] * 11 and widths[11] < 20 and widths[-1] == 12
    assert len(set(widths)) > 3


@pytest.mark.parametrize("keep", [False, True])
def test_certificate_blow_up_raises_divergence(keep):
    net = OscillatorNetwork(2, [1e308, -1e308], [1.0])
    with warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error")  # the error is the only signal
        invariance_certificate(
            net, n_samples=5, horizon=1.0, dt=0.5, seed=0, keep_trajectories=keep
        )


def test_certificate_peak_memory_at_n10_stays_below_8mb():
    rng = np.random.default_rng(10)
    omega = rng.uniform(-1.0, 1.0, 10)
    bounds = sufficient_gain_bounds(OscillatorNetwork(10, omega, np.ones(45)))
    net = OscillatorNetwork(10, omega, 1.2 * bounds)
    tracemalloc.start()
    try:
        report = invariance_certificate(net, n_samples=400, horizon=5.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8e6, f"certificate peak {peak / 1e6:.1f} MB"


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
# counts and masks over the whole 2e-long spectrum. Applied to the report's
# own spectrum and tolerance it must give the same verdict, with no band.


def _mask_verdict(net, report):
    eigs, tol = report.eigenvalues, report.zero_tolerance
    n_zero = int(np.sum(np.abs(eigs) < tol))
    nonzero = eigs[np.abs(eigs) >= tol]
    if np.any(eigs.real > tol):
        return UNSTABLE
    if (
        np.all(np.abs(report.equilibrium_x) < np.pi / 2)
        and np.all(nonzero.real < -tol)
        and n_zero == 2 * net.n_edges - (net.n_oscillators - 1)
    ):
        return SEMISTABLE_CANDIDATE
    return INDETERMINATE


@settings(max_examples=300, deadline=None)
@given(edge_cases())
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
