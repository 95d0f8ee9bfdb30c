"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible with
``pytest -s``) and then asserts, so a red test always names its criterion.
"""

import time

import numpy as np
import pytest
from test_network import brute_force_connected

from phaselock import (
    OscillatorNetwork,
    classify_stability,
    edge_count,
    edge_pairs,
    incidence_matrix,
    invariance_certificate,
    is_connected,
    lyapunov_v2_along,
    nontangency_rank_test,
    simulate,
    simulate_many,
    solve_equilibrium,
    sufficient_gain_bounds,
    sync_frequency,
    uniform_critical_gain,
    wrap_phase,
)
from phaselock.analysis import _sample_box_states
from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network
from phaselock.planar import phase_difference_rate

CHAIN = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])

SYNC_TOL = 1e-6


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _rk4_scalar_batch(x, k, dw, dt, n_steps, callback=None):
    """Fixed-step integration of the phase-difference rate for array data."""
    for step in range(n_steps):
        k1 = phase_difference_rate(x, k, dw)
        k2 = phase_difference_rate(x + 0.5 * dt * k1, k, dw)
        k3 = phase_difference_rate(x + 0.5 * dt * k2, k, dw)
        k4 = phase_difference_rate(x + dt * k3, k, dw)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if callback is not None:
            callback(x)
    return x


def test_criterion_01_three_oscillator_experiment():
    start = time.perf_counter()
    failures = []

    x_star = solve_equilibrium(CHAIN)
    if abs(x_star[0]) > 1e-9 or abs(x_star[1] + np.pi / 6) > 1e-9:
        failures.append(f"fixed point off target: {x_star[:2]}")
    stability = classify_stability(CHAIN, x_star)
    if stability.classification != "semistable-candidate":
        failures.append(f"classification {stability.classification}")

    rng = np.random.default_rng(20250809)
    lo, hi = -np.pi + 0.1, np.pi - 0.1
    starts = []
    while len(starts) < 50:
        x1, x2 = rng.uniform(lo, hi, 2)
        if lo < x2 - x1 < hi:
            starts.append((x1, x2))
    theta0s = np.array([[x2, x2 - x1, 0.0] for x1, x2 in starts]).T
    trajectories = simulate_many(CHAIN, theta0s, 100.0, 0.005, stop_on_sync=True)
    for traj in trajectories:
        v_end = np.max(np.abs(traj.edge_v(CHAIN)[-1]))
        x_end = traj.edge_x(CHAIN)[-1]
        dist = np.max(np.abs(wrap_phase(x_end - x_star)))
        if traj.synchronized_at is None or v_end >= SYNC_TOL:
            failures.append(f"start did not synchronize (|V| = {v_end:.2e})")
        elif dist > 1e-3:
            failures.append(f"converged to a different point (dist {dist:.2e})")

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, not failures, f"fixed point {x_star[:2]}, 50 starts, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_02_five_oscillator_experiment():
    start = time.perf_counter()
    net = five_network_network()
    traj = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
    worst = float(np.max(np.abs(traj.theta_dots[-1] - 3.0)))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-6 and traj.synchronized_at is not None and elapsed < 10.0
    _report(2, passed, f"worst |rate - 3| = {worst:.2e}, {elapsed:.1f}s")
    assert passed, (worst, traj.synchronized_at, elapsed)


def test_criterion_03_two_oscillator_dichotomy_grid():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1234)

    k_grid = np.linspace(0.5, 2.0, 20)
    # constant offset keeps every synchronizing grid point a safe distance
    # from the |mismatch| = gain boundary, where convergence time blows up
    dw_grid = np.linspace(0.0, 2.5, 20) + 0.017
    pairs = [(dw, k) for dw in dw_grid for k in k_grid]
    sync_pairs = [(dw, k) for dw, k in pairs if dw <= k]
    drift_pairs = [(dw, k) for dw, k in pairs if dw > 1.05 * k]
    n_init = 20

    # synchronizing side: sustained |V| < 1e-6 for a full second at the end
    dw = np.repeat([p[0] for p in sync_pairs], n_init)
    kk = np.repeat([p[1] for p in sync_pairs], n_init)
    theta1 = rng.uniform(-np.pi, np.pi, dw.size)
    theta2 = rng.uniform(-np.pi, np.pi, dw.size)
    dt, t_end = 0.01, 300.0
    window = int(round(1.0 / dt))
    run = np.zeros(dw.size, dtype=int)

    def track(x):
        small = np.abs(phase_difference_rate(x, kk, dw)) < SYNC_TOL
        run[~small] = 0
        run[small] += 1

    _rk4_scalar_batch(theta1 - theta2, kk, dw, dt, int(t_end / dt), track)
    if not np.all(run >= window):
        failures.append(f"{int(np.sum(run < window))} sync runs missed the window")

    # drifting side: unwrapped growth beyond 10 rad over 100 s
    dwd = np.repeat([p[0] for p in drift_pairs], n_init)
    kkd = np.repeat([p[1] for p in drift_pairs], n_init)
    x0 = rng.uniform(-np.pi, np.pi, dwd.size)
    x_end = _rk4_scalar_batch(x0.copy(), kkd, dwd, 0.01, 10_000)
    growth = np.abs(x_end - x0)
    if not np.all(growth > 10.0):
        failures.append(f"min drift growth {growth.min():.2f} rad")

    # spot-check both regimes through the full network integrator
    for dw_v, k_v in sync_pairs[:: max(1, len(sync_pairs) // 2)][:2]:
        net = OscillatorNetwork(2, [dw_v, 0.0], [k_v])
        traj = simulate(net, rng.uniform(-np.pi, np.pi, 2), 300.0, 0.01, stop_on_sync=True)
        if traj.synchronized_at is None:
            failures.append(f"network run (dw={dw_v:.2f}, k={k_v:.2f}) missed sync")
    for dw_v, k_v in drift_pairs[:: max(1, len(drift_pairs) // 2)][:2]:
        net = OscillatorNetwork(2, [dw_v, 0.0], [k_v])
        traj = simulate(net, np.zeros(2), 100.0, 0.01)
        unwrapped = np.unwrap(traj.thetas, axis=0)
        delta = unwrapped[:, 0] - unwrapped[:, 1]
        if abs(delta[-1] - delta[0]) <= 10.0:
            failures.append(f"network run (dw={dw_v:.2f}, k={k_v:.2f}) did not drift")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(
        3,
        not failures,
        f"{len(sync_pairs)} sync / {len(drift_pairs)} drift points, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_04_locked_phase_matches_arcsine():
    rng = np.random.default_rng(77)
    ks = rng.uniform(0.5, 2.0, 50)
    ratios = rng.uniform(-0.85, 0.85, 50)
    theta0s = rng.uniform(-np.pi, np.pi, (2, 50))
    worst = 0.0
    # full horizon, no early stop: the stored endpoint then sits within
    # ~1e-10 of the true limit even for the slowest pair
    for idx in range(50):
        net = OscillatorNetwork(2, [ratios[idx] * ks[idx], 0.0], [ks[idx]])
        traj = simulate(net, theta0s[:, idx], 100.0, 0.05)
        dtheta = wrap_phase(traj.thetas[-1, 0] - traj.thetas[-1, 1])
        worst = max(worst, abs(dtheta - np.arcsin(ratios[idx])))
    passed = worst < 1e-6
    _report(4, passed, f"worst |limit - arcsin| = {worst:.2e} over 50 pairs")
    assert passed, worst


@pytest.fixture(scope="module")
def certified_networks():
    """Twenty random connected networks with gains at 1.2x the sufficient
    thresholds (floor 0.1 on zero-mismatch edges), certified for 50 s,
    each with the certificate's trajectories, recomputed by
    ``simulate_many`` from the starts it samples.

    Returns (results, elapsed_seconds) so the runtime budget covers the
    certificate runs themselves."""
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    results = []
    for idx in range(20):
        n = int(rng.integers(3, 7))
        if idx % 4 == 0:
            omega = rng.integers(0, 3, n).astype(float)  # ties exercise the floor
        else:
            omega = rng.uniform(-2.0, 2.0, n)
        base = OscillatorNetwork(n, omega, np.ones(edge_count(n)))
        bounds = sufficient_gain_bounds(base)
        gains = np.where(bounds > 1e-12, 1.2 * bounds, 0.1)
        net = OscillatorNetwork(n, omega, gains)
        report = invariance_certificate(
            net, n_samples=100, horizon=50.0, dt=0.01, margin=0.1, seed=9000 + idx
        )
        theta0s = _sample_box_states(net, 100, 0.1, np.random.default_rng(9000 + idx))
        results.append((net, report, simulate_many(net, theta0s, 50.0, 0.01)))
    return results, time.perf_counter() - start


def test_criterion_05_invariance_certificates(certified_networks):
    results, elapsed = certified_networks
    failures = []
    floor_edges = 0
    for net, report, trajectories in results:
        floor_edges += int(np.sum(sufficient_gain_bounds(net) <= 1e-12))
        if not is_connected(net):
            failures.append("sampled network not connected")
        if not report.bounds_met:
            failures.append("gain bounds reported unmet")
        if not report.passed:
            failures.append(
                f"certificate failed: {report.n_stayed}/{report.n_samples} stayed"
            )
        stayed = sum(bool(np.all(np.abs(t.edge_x(net)) < np.pi / 2)) for t in trajectories)
        if stayed != report.n_stayed:
            failures.append(f"stored trajectories: {stayed} stayed, certificate {report.n_stayed}")
    if floor_edges == 0:
        failures.append("no zero-mismatch edge exercised the gain floor")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    _report(
        5,
        not failures,
        f"20 networks x 100 trajectories x 50s, {floor_edges} floor edges, {elapsed:.0f}s",
    )
    assert not failures, failures


def test_criterion_06_lyapunov_monotonicity(certified_networks):
    results, _ = certified_networks
    worst_increase = -np.inf
    worst_rate = -np.inf
    count = 0
    for net, _, trajectories in results:
        for traj in trajectories:
            v2, v2_dot = lyapunov_v2_along(traj, net)
            worst_increase = max(worst_increase, float(np.max(np.diff(v2))))
            worst_rate = max(worst_rate, float(np.max(v2_dot)))
            count += 1
    passed = worst_increase <= 1e-9 and worst_rate <= 1e-12
    _report(
        6,
        passed,
        f"{count} trajectories, max step increase {worst_increase:.2e}, "
        f"max derivative {worst_rate:.2e}",
    )
    assert passed, (worst_increase, worst_rate)


def test_criterion_07_nontangency_iff_connected():
    rng = np.random.default_rng(404)
    checked = 0
    failures = []
    for n in (3, 4):
        e = edge_count(n)
        pairs = edge_pairs(n)
        random_states = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (20, e))
        for mask_bits in range(2**e):
            mask = [(mask_bits >> k) & 1 for k in range(e)]
            gains = np.array(mask, dtype=float)
            net = OscillatorNetwork(n, np.zeros(n), gains)
            expected = brute_force_connected(n, [p for p, m in zip(pairs, mask) if m])
            if is_connected(net) != expected:
                failures.append(f"connectivity mismatch n={n} mask={mask}")
            states = np.vstack([np.zeros(e), random_states])
            for x in states:
                checked += 1
                if nontangency_rank_test(net, x) != expected:
                    failures.append(f"rank test mismatch n={n} mask={mask}")
                    break
    _report(7, not failures, f"{checked} (pattern, state) combinations agree")
    assert not failures, failures


def test_criterion_08_algebraic_identities():
    failures = []
    rng = np.random.default_rng(88)
    worst = 0.0
    for n in range(2, 9):
        b = incidence_matrix(n)
        if not np.array_equal(b @ (b.T @ b), n * b):
            failures.append(f"incidence identity failed for n={n}")
        net = OscillatorNetwork(
            n, rng.uniform(-2, 2, n), rng.uniform(0.2, 2.0, edge_count(n))
        )
        traj = simulate(net, rng.uniform(-np.pi, np.pi, n), 2.0, 0.01)
        dev = float(np.max(np.abs(traj.theta_dots.mean(axis=1) - sync_frequency(net))))
        worst = max(worst, dev)
        if dev >= 1e-9:
            failures.append(f"mean frequency drift {dev:.2e} for n={n}")
    _report(8, not failures, f"n=2..8, worst mean-frequency drift {worst:.2e}")
    assert not failures, failures


def test_criterion_09_gain_threshold_values():
    two = OscillatorNetwork(2, [1.25, 0.5], [1.0])
    exact_two = uniform_critical_gain(two) == abs(1.25 - 0.5)
    five = OscillatorNetwork(5, np.arange(1.0, 6.0), np.ones(10))
    exact_five = uniform_critical_gain(five) == 2.5
    same = OscillatorNetwork(4, np.full(4, 1.7), np.ones(6))
    all_zero = uniform_critical_gain(same) == 0.0 and np.all(
        sufficient_gain_bounds(same) == 0.0
    )
    passed = exact_two and exact_five and all_zero
    _report(9, passed, "two-oscillator exact, five-oscillator 2.5, identical zero")
    assert passed, (exact_two, exact_five, all_zero)


def test_criterion_10_rk4_convergence_order():
    theta0 = np.array([0.2, 0.3, -0.1])
    t_end, dt = 1.0, 0.02

    def endpoint(step):
        return simulate(CHAIN, theta0, t_end, step).thetas[-1]

    ref = endpoint(dt / 100)
    e1 = np.max(np.abs(wrap_phase(endpoint(dt) - ref)))
    e2 = np.max(np.abs(wrap_phase(endpoint(dt / 2) - ref)))
    ratio = e1 / e2
    passed = 12.0 <= ratio <= 20.0
    _report(10, passed, f"error ratio {ratio:.2f} (expect 12..20)")
    assert passed, ratio
