"""Node dynamics, edge transform, integration, and field-grid tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phaselock.dynamics
import phaselock.network
from phaselock import (
    OscillatorNetwork,
    edge_index,
    edge_transform,
    g_matrix,
    incidence_matrix,
    linearize,
    simulate,
    simulate_many,
    theta_dot,
    vector_field_grid,
    wrap_phase,
)
from phaselock.dynamics import SYNC_TOL, SYNC_WINDOW, Trajectory
from phaselock.errors import DivergenceError


def componentwise_rate(theta, omega, gain_of):
    """Sum-form oracle: rate_i = omega_i + sum_j (gain_ij / n) sin(theta_j - theta_i)."""
    n = len(theta)
    out = np.array(omega, dtype=float)
    for i in range(n):
        for j in range(n):
            if j != i:
                out[i] += gain_of(i, j) / n * np.sin(theta[j] - theta[i])
    return out


def random_network(n, rng, connected=True):
    e = n * (n - 1) // 2
    gains = rng.uniform(0.5, 3.0, e) if connected else rng.uniform(0.0, 3.0, e)
    return OscillatorNetwork(n, rng.uniform(-2.0, 2.0, n), gains)


def test_wrap_phase_interval():
    assert wrap_phase(np.pi) == np.pi
    assert wrap_phase(-np.pi) == np.pi
    assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_phase(0.25) == 0.25
    vals = wrap_phase(np.linspace(-20, 20, 1001))
    assert np.all(vals > -np.pi) and np.all(vals <= np.pi)


@settings(max_examples=300, deadline=None)
@given(arrays(float, 50, elements=st.floats(-1e6, 1e6)))
def test_wrap_phase_is_idempotent(x):
    # the certificate judges stored (wrapped) phases by the same test as
    # the unwrapped ones they came from
    w = wrap_phase(x)
    assert np.array_equal(wrap_phase(w), w)


def test_theta_dot_identical_phases_returns_omega():
    net = OscillatorNetwork(4, [1.0, -0.5, 2.0, 0.3], np.ones(6))
    for c in (0.0, 1.2, -2.5):
        assert np.array_equal(theta_dot(np.full(4, c), net), net.natural_frequencies)


def test_theta_dot_two_oscillator_hand_value():
    net = OscillatorNetwork(2, [1.0, 0.0], [2.0])
    got = theta_dot(np.array([np.pi / 2, 0.0]), net)
    assert got == pytest.approx([0.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_theta_dot_matches_componentwise_sum(n):
    from phaselock.network import edge_index

    rng = np.random.default_rng(42 + n)
    net = random_network(n, rng)

    def gain_of(i, j):
        a, b = min(i, j), max(i, j)
        return net.coupling_gains[edge_index(n, a, b)]

    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi, n)
        expected = componentwise_rate(theta, net.natural_frequencies, gain_of)
        assert np.max(np.abs(theta_dot(theta, net) - expected)) < 1e-12


@st.composite
def field_cases(draw):
    """A network with some zero gains, phases (single or batched) and a shift."""
    n = draw(st.integers(2, 12))
    omega = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    gain = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    gains = draw(arrays(float, n * (n - 1) // 2, elements=gain))
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
    theta = draw(arrays(float, shape, elements=st.floats(-2 * np.pi, 2 * np.pi)))
    shift = draw(st.floats(-10.0, 10.0))
    return OscillatorNetwork(n, omega, gains), theta, shift


@settings(max_examples=300, deadline=None)
@given(field_cases())
def test_theta_dot_matches_incidence_form(case):
    net, theta, shift = case
    n, omega, gains = net.n_oscillators, net.natural_frequencies, net.coupling_gains
    b = incidence_matrix(n).astype(float)
    columns = theta.reshape(n, -1)
    expected = omega[:, None] - b @ (gains[:, None] / n * np.sin(b.T @ columns))
    expected = expected.reshape(theta.shape)
    tol = 1e-12 * (1.0 + np.max(np.abs(omega)) + np.sum(gains) / n)
    got = theta_dot(theta, net)
    assert got.shape == theta.shape
    assert np.max(np.abs(got - expected)) <= tol
    assert np.max(np.abs(theta_dot(theta + shift, net) - got)) <= tol
    # identical phases give omega exactly, whatever the common phase
    same = theta_dot(np.full(theta.shape, shift), net)
    assert np.all(same.reshape(n, -1) == omega[:, None])


def test_theta_dot_dimension_mismatch():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], np.ones(3))
    with pytest.raises(ValueError):
        theta_dot(np.zeros(4), net)


def _zero_network(n):
    return OscillatorNetwork(n, np.zeros(n), np.zeros(n * (n - 1) // 2))


def test_edge_transform_common_phase_gives_zero():
    state = edge_transform(np.full(5, 0.7), np.zeros(5), _zero_network(5))
    assert np.array_equal(state.x, np.zeros(10))


def test_edge_transform_three_oscillators():
    state = edge_transform(np.array([0.3, 0.1, -0.2]), np.zeros(3), _zero_network(3))
    assert state.x == pytest.approx([0.2, 0.5, 0.3], abs=1e-15)


def test_edge_transform_v_zero_iff_common_rate():
    net = _zero_network(4)
    common = edge_transform(np.zeros(4), np.full(4, 2.5), net)
    assert np.array_equal(common.v, np.zeros(6))
    uneven = edge_transform(np.zeros(4), np.array([2.5, 2.5, 2.5, 2.6]), net)
    assert np.any(uneven.v != 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.data())
def test_edge_transform_matches_the_dense_incidence(n, data):
    theta, rates = (
        data.draw(arrays(float, n, elements=st.floats(-1e3, 1e3))) for _ in range(2)
    )
    b = incidence_matrix(n).astype(float)
    state = edge_transform(theta, rates, _zero_network(n))
    assert np.array_equal(state.x, wrap_phase(b.T @ theta))
    assert np.array_equal(state.v, b.T @ rates)


def test_edge_transform_rejects_a_wrong_length():
    with pytest.raises(ValueError, match=r"must have shape \(3,\)"):
        edge_transform(np.zeros(4), np.zeros(4), _zero_network(3))


def test_g_matrix_at_origin_is_negative_edge_laplacian_scaled():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    b = incidence_matrix(3)
    expected = -(b.T @ b) * (net.coupling_gains / 3)[None, :]
    assert np.array_equal(g_matrix(np.zeros(3), net), expected)


def test_g_matrix_two_oscillator_hand_value():
    net = OscillatorNetwork(2, [0.0, 0.0], [2.0])
    assert g_matrix(np.array([np.pi / 3]), net)[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_g_matrix_quadratic_form_nonpositive_on_colspace():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        net = random_network(n, rng)
        for _ in range(340):
            # draw X in the open box and v in Col(B^T)
            x = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, net.n_edges)
            v = incidence_matrix(n).T.astype(float) @ rng.normal(size=n)
            q = v @ g_matrix(x, net) @ v
            assert q <= 1e-12


def test_simulate_identical_frequencies_exact_rotation():
    net = OscillatorNetwork(3, [1.5, 1.5, 1.5], [2.0, 1.0, 0.5])
    theta0 = np.array([0.3, 0.3, 0.3])
    traj = simulate(net, theta0, 5.0, 0.01)
    expected = wrap_phase(theta0[None, :] + np.outer(traj.times, net.natural_frequencies))
    assert np.max(np.abs(wrap_phase(traj.thetas - expected))) < 1e-9
    assert np.max(np.ptp(traj.theta_dots, axis=1)) == 0.0


def test_simulate_two_oscillator_phase_lock_limit():
    # pairwise gain 1 with mismatch 0.5 locks at arcsin(0.5) = pi/6
    net = OscillatorNetwork(2, [1.0, 0.5], [1.0])
    traj = simulate(net, np.zeros(2), 30.0, 0.01)
    dtheta = traj.thetas[-1, 0] - traj.thetas[-1, 1]
    assert wrap_phase(dtheta) == pytest.approx(np.pi / 6, abs=1e-6)


def test_simulate_five_network_frequencies_reach_mean():
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    net = five_network_network()
    traj = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
    assert traj.synchronized_at is not None
    assert np.max(np.abs(traj.theta_dots[-1] - 3.0)) < 1e-6


@pytest.mark.parametrize("n", range(2, 9))
def test_mean_frequency_conserved(n):
    rng = np.random.default_rng(100 + n)
    net = random_network(n, rng)
    traj = simulate(net, rng.uniform(-np.pi, np.pi, n), 2.0, 0.01)
    mean_rate = traj.theta_dots.mean(axis=1)
    assert np.max(np.abs(mean_rate - net.mean_frequency)) < 1e-9


def test_rk4_halving_step_shrinks_error_fourth_order():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    theta0 = np.array([0.2, 0.3, -0.1])
    t_end, dt = 1.0, 0.02

    def endpoint(step):
        return simulate(net, theta0, t_end, step).thetas[-1]

    ref = endpoint(dt / 100)
    e1 = np.max(np.abs(wrap_phase(endpoint(dt) - ref)))
    e2 = np.max(np.abs(wrap_phase(endpoint(dt / 2) - ref)))
    assert 12.0 < e1 / e2 < 20.0


def test_edge_consistency_identity_along_trajectory():
    rng = np.random.default_rng(11)
    net = random_network(4, rng)
    traj = simulate(net, rng.uniform(-1.0, 1.0, 4), 5.0, 0.01)
    x = traj.edge_x(net)
    v = traj.edge_v(net)
    b = incidence_matrix(4).astype(float)
    btb = b.T @ b
    bw = b.T @ net.natural_frequencies
    expected = bw[None, :] - (net.coupling_gains / 4 * np.sin(x)) @ btb.T
    assert np.max(np.abs(v - expected)) < 1e-8


def test_stored_phases_wrapped():
    net = OscillatorNetwork(2, [5.0, 5.0], [1.0])
    traj = simulate(net, np.array([3.0, -3.0]), 10.0, 0.01)
    assert np.all(traj.thetas > -np.pi) and np.all(traj.thetas <= np.pi)


def test_trajectory_ode_residual_and_time_grid():
    rng = np.random.default_rng(13)
    net = random_network(3, rng)
    traj = simulate(net, rng.uniform(-1, 1, 3), 3.0, 0.01)
    recomputed = np.array([theta_dot(th, net) for th in traj.thetas])
    assert np.max(np.abs(traj.theta_dots - recomputed)) < 1e-9
    steps = np.diff(traj.times)
    assert np.all(steps > 0)
    assert np.max(np.abs(steps - 0.01)) < 1e-12


def test_simulate_rejects_bad_inputs(monkeypatch):
    net = OscillatorNetwork(2, [1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        simulate(net, [np.inf, 0.0], 1.0, 0.01)
    with pytest.raises(ValueError):
        simulate(net, [0.0, 0.0], 1.0, -0.01)
    with pytest.raises(ValueError):
        simulate(net, [0.0, 0.0], 0.001, 0.01)
    with pytest.raises(ValueError, match=r"^theta0 must have shape \(2,\)$"):
        simulate(net, [0.1, 0.2, 0.3], 1.0)
    calls = []
    monkeypatch.setattr(phaselock.dynamics, "theta_dot", lambda *a: calls.append(1))
    with pytest.raises(ValueError, match=r"m >= 1"):  # an empty batch takes no step
        simulate_many(net, np.zeros((2, 0)), 100.0, 0.01)
    assert not calls


def _oracle_simulate_many(net, theta0s, t_end, dt, stop_on_sync):
    """Reference batch integrator: the whole horizon is allocated up front,
    a closure stores each step and returns True to stop, and the driver
    loop returns the last step taken."""
    f = lambda y: theta_dot(y, net)  # noqa: E731
    n_steps = max(int(round(t_end / dt)), 1)
    m = theta0s.shape[1]
    window_steps = max(1, int(round(SYNC_WINDOW / dt)))
    thetas = np.empty((n_steps + 1, net.n_oscillators, m))
    dots = np.empty_like(thetas)
    run = np.zeros(m, dtype=int)
    sync_step = np.full(m, -1, dtype=int)

    def store(k, theta, td):
        thetas[k] = theta
        dots[k] = td
        small = np.ptp(td, axis=0) < SYNC_TOL
        run[~small] = 0
        run[small] += 1
        if k == 0:
            return False
        completed = (run >= window_steps) & (sync_step < 0)
        sync_step[completed] = k - window_steps + 1
        return stop_on_sync and bool(np.all(sync_step >= 0))

    y, fy, k = theta0s, f(theta0s), 0
    with np.errstate(over="ignore", invalid="ignore"):  # omega = +-1e308 overflows
        while not store(k, y, fy) and k < n_steps:
            k += 1
            k2 = f(y + 0.5 * dt * fy)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + (dt / 6.0) * (fy + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise DivergenceError(step=k, time=k * dt)
            fy = f(y)
    thetas, dots = thetas[: k + 1].copy(), dots[: k + 1].copy()
    thetas = wrap_phase(thetas)
    return [
        Trajectory(
            times=np.arange(k + 1) * dt,
            thetas=thetas[:, :, j],
            theta_dots=dots[:, :, j],
            synchronized_at=sync_step[j] * dt if sync_step[j] >= 0 else None,
        )
        for j in range(m)
    ]


def _outcome(run):
    try:
        return [
            (t.times.tobytes(), t.thetas.tobytes(), t.theta_dots.tobytes(), t.synchronized_at)
            for t in run()
        ]
    except DivergenceError as exc:
        return ("diverged", exc.step, exc.time)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(1, 5),
    dt=st.sampled_from([0.005, 0.01, 0.5, 3.0]),
    steps=st.integers(1, 700),
    stop_on_sync=st.booleans(),
    gain=st.sampled_from([0.3, 3.0, 20.0]),
    spread=st.sampled_from([0.0, 0.2, 1e308]),
    seed=st.integers(0, 2**32 - 1),
)
# stops at step 645, after the early-stopping store has grown
@example(n=4, m=3, dt=0.005, steps=700, stop_on_sync=True, gain=20.0, spread=0.2, seed=8)
def test_simulate_many_matches_the_reducer_oracle(
    n, m, dt, steps, stop_on_sync, gain, spread, seed
):
    # sync windows are 200, 100, 2 and 1 steps; omega = +-1e308 diverges
    rng = np.random.default_rng(seed)
    e = n * (n - 1) // 2
    gains = rng.uniform(0.0, gain, e) * (rng.random(e) < 0.8)
    if spread == 1e308:
        omega = rng.choice([-1e308, 1e308], n)
    else:
        omega = rng.uniform(-spread, spread, n)
    net = OscillatorNetwork(n, omega, gains)
    theta0s = rng.uniform(-np.pi, np.pi, (n, m))
    t_end = steps * dt
    got = _outcome(lambda: simulate_many(net, theta0s, t_end, dt, stop_on_sync=stop_on_sync))
    want = _outcome(lambda: _oracle_simulate_many(net, theta0s, t_end, dt, stop_on_sync))
    assert got == want


@pytest.mark.parametrize("stop_on_sync", [False, True])
@pytest.mark.parametrize("k, steps", [(18.5, 171), (20.0, 180), (26.0, 185)])
def test_sync_completing_in_the_final_partial_block_is_found(k, steps, stop_on_sync):
    # run 0 starts near the lock and syncs late; run 1 sits within 1e-7 of
    # the unstable x = pi and stays open, so the counter's next scheduled
    # pass lies beyond the horizon and only the final step's pass sees run 0
    net = OscillatorNetwork(2, [0.1, -0.1], [k])
    lock = np.arcsin(0.2 / k)
    theta0s = np.array([[lock + 0.02, np.pi + 1e-7], [0.0, 0.0]])
    got = _outcome(lambda: simulate_many(net, theta0s, steps * 0.01, 0.01,
                                         stop_on_sync=stop_on_sync))
    want = _outcome(lambda: _oracle_simulate_many(net, theta0s, steps * 0.01, 0.01,
                                                  stop_on_sync))
    assert got == want
    assert [sync is not None for *_, sync in got] == [True, False]


def _per_step_sync(dots, window_steps, run, sync_step):
    """The per-step counter update of the reference integrator, recording
    (run, sync_step) after every step."""
    states = []
    for k, td in enumerate(dots):
        small = np.ptp(td, axis=0) < SYNC_TOL
        run[~small] = 0
        run[small] += 1
        if k > 0:
            completed = (run >= window_steps) & (sync_step < 0)
            sync_step[completed] = k - window_steps + 1
        states.append((run.copy(), sync_step.copy()))
    return states


@settings(max_examples=200, deadline=None)
@given(
    window_steps=st.sampled_from([1, 2, 3, 100]),
    m=st.integers(1, 5),
    n_rows=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sync_counter_matches_the_per_step_update(window_steps, m, n_rows, seed):
    rng = np.random.default_rng(seed)
    # per column: alternating streaks of small spread (often one step short
    # of a window, a window, or one more) and of large spread, either first
    small = np.empty((n_rows, m), dtype=bool)
    for j in range(m):
        col, is_small = [], bool(rng.integers(2))
        while len(col) < n_rows:
            if is_small:
                near = window_steps + int(rng.integers(-1, 2))
                col += [True] * int(rng.choice([near, rng.integers(1, 3 * window_steps + 1)]))
            else:
                col += [False] * int(rng.integers(1, 4))
            is_small = not is_small
        small[:, j] = col[:n_rows]
    # spreads straddle SYNC_TOL: 0 or half of it count as small, 1e-6 itself does not
    spread = np.where(small, rng.choice([0.0, 0.5e-6], small.shape),
                      rng.choice([SYNC_TOL, 1.0], small.shape))
    dots = np.stack([np.zeros_like(spread), spread], axis=1)  # (T, 2, m)
    # some runs already synchronized before the first step
    pre = np.where(rng.random(m) < 0.2, rng.integers(0, 5, m), -1)

    want = _per_step_sync(dots, window_steps, np.zeros(m, dtype=int), pre.copy())
    run, sync_step = np.zeros(m, dtype=int), pre.copy()
    cuts = np.flatnonzero(rng.random(n_rows) < rng.choice([0.02, 0.2, 0.9])) + 1
    start = 0
    for stop in [*cuts[cuts < n_rows], n_rows]:
        phaselock.dynamics._count_sync(dots[start:stop], start, run, sync_step, window_steps)
        assert np.array_equal(run, want[stop - 1][0])
        assert np.array_equal(sync_step, want[stop - 1][1])
        start = stop


def test_early_stop_counts_sync_windows_in_blocks(monkeypatch):
    # a per-step counter would run 3295 times on this run; two consecutive
    # blocks always span more than one 200-step window
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    calls = []
    count = phaselock.dynamics._count_sync

    def counting(dots, *args):
        calls.append(len(dots))
        return count(dots, *args)

    monkeypatch.setattr(phaselock.dynamics, "_count_sync", counting)
    traj = simulate(five_network_network(), FIVE_NETWORK_THETA0, 100.0, 0.005,
                    stop_on_sync=True)
    window_steps = round(SYNC_WINDOW / 0.005)
    assert traj.n_steps == 3294 and sum(calls) == traj.n_steps + 1
    assert len(calls) <= 2 * traj.n_steps / window_steps + 2


def test_early_stop_evaluates_the_field_only_for_the_steps_taken(monkeypatch):
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    calls = []
    field = phaselock.dynamics.theta_dot

    def counting(theta, net):
        calls.append(1)
        return field(theta, net)

    monkeypatch.setattr(phaselock.dynamics, "theta_dot", counting)
    traj = simulate(net, [0.2, 0.3, -0.1], 200.0, 0.01, stop_on_sync=True)
    # a generator that stepped ahead of its consumer would add four calls
    assert traj.synchronized_at is not None and traj.n_steps < 20000
    assert len(calls) == 1 + 4 * traj.n_steps


def test_early_stop_peak_memory_of_five_network_stays_below_1_2mb():
    # the run stops after 3294 of 20000 steps; storing the whole horizon
    # peaked at 1.87 MB, the steps taken are 0.26 MB
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    net = five_network_network()
    tracemalloc.start()
    try:
        traj = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps < 20000
    assert peak < 1.2e6, f"simulate peak {peak / 1e6:.2f} MB"


def test_integration_reuses_the_stored_field_as_k1(monkeypatch):
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    calls = []
    field = phaselock.dynamics.theta_dot

    def counting(theta, net):
        calls.append(1)
        return field(theta, net)

    monkeypatch.setattr(phaselock.dynamics, "theta_dot", counting)
    traj = simulate(net, [0.2, 0.3, -0.1], 0.1, 0.01)
    # one evaluation at the start, then four per RK4 step
    assert traj.n_steps == 10 and len(calls) == 1 + 4 * 10


def forbid_incidence(monkeypatch):
    """Make every library path that builds the dense incidence fail."""

    def refuse(n_oscillators):
        raise AssertionError(f"dense incidence built for N = {n_oscillators}")

    monkeypatch.setattr(phaselock.network, "incidence_matrix", refuse)


def test_simulation_leaves_the_incidence_unbuilt(monkeypatch):
    forbid_incidence(monkeypatch)
    n = 200
    gains = np.zeros(n * (n - 1) // 2)
    for i in range(n):
        gains[edge_index(n, *sorted((i, (i + 1) % n)))] = 1.0
    net = OscillatorNetwork(n, np.linspace(-0.5, 0.5, n), gains)
    theta0 = np.linspace(-0.3, 0.3, n)
    simulate(net, theta0, 0.05, 0.01)
    simulate_many(net, np.column_stack([theta0, -theta0]), 0.05, 0.01)


def test_simulate_many_peak_memory_at_n10_stays_below_4_5mb():
    # 40 columns of 501 stored steps at N = 10 are 1.6 MB of phases and
    # 1.6 MB of fields; the gate fails if either is held twice
    rng = np.random.default_rng(10)
    net = random_network(10, rng)
    theta0s = rng.uniform(-1.0, 1.0, (10, 40))
    tracemalloc.start()
    try:
        trajectories = simulate_many(net, theta0s, 5.0, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trajectories) == 40 and trajectories[0].n_steps == 500
    assert peak < 4.5e6, f"simulate_many peak {peak / 1e6:.2f} MB"


def test_early_stop_holds_only_the_steps_taken():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    traj = simulate(net, [0.2, 0.3, -0.1], 200.0, 0.01, stop_on_sync=True)
    assert traj.synchronized_at is not None and traj.n_steps < 20000
    for a in (traj.thetas, traj.theta_dots):
        held = a if a.base is None else a.base
        assert held.nbytes == a.nbytes


def test_simulate_many_matches_single_runs():
    rng = np.random.default_rng(17)
    net = random_network(3, rng)
    theta0s = rng.uniform(-1, 1, (3, 4))
    batch = simulate_many(net, theta0s, 2.0, 0.01)
    for j in range(4):
        single = simulate(net, theta0s[:, j], 2.0, 0.01)
        assert np.max(np.abs(single.thetas - batch[j].thetas)) < 1e-13


def test_vector_field_grid_two_oscillators():
    net = OscillatorNetwork(2, [1.0, 1.0], [1.0])
    rows = vector_field_grid(net, x1_range=(-1.0, 1.0), x2_range=(-2.0, 2.0), resolution=5)
    assert rows.shape == (25, 4)
    at_zero = rows[rows[:, 0] == 0.0]
    assert np.allclose(at_zero[:, 2], at_zero[:, 1])
    assert np.allclose(at_zero[:, 3], -at_zero[:, 1])


def test_vector_field_grid_vanishing_rotation_column():
    net = OscillatorNetwork(2, [0.3, 0.0], [1.5])
    rows = vector_field_grid(
        net, x1_range=(-np.pi / 2, np.pi / 2), x2_range=(-1.0, 1.0), resolution=3
    )
    edges = rows[np.abs(np.abs(rows[:, 0]) - np.pi / 2) < 1e-12]
    assert len(edges) > 0
    assert np.max(np.abs(edges[:, 3])) < 1e-12


def test_vector_field_grid_three_oscillators_matches_reduced_equations():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    rows = vector_field_grid(net, resolution=9)
    x1, x2 = rows[:, 0], rows[:, 1]
    assert np.max(np.abs(rows[:, 2] - (-1 - 6 * np.sin(x1) - 2 * np.sin(x2)))) < 1e-12
    assert np.max(np.abs(rows[:, 3] - (-2 - 3 * np.sin(x1) - 4 * np.sin(x2)))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    arrays(float, 3, elements=st.floats(-5.0, 5.0)),
    arrays(float, 3, elements=st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
)
def test_vector_field_grid_three_oscillators_matches_the_dense_formula(omega, gains):
    net = OscillatorNetwork(3, omega, gains)
    rows = vector_field_grid(net, resolution=7)
    b = incidence_matrix(3).astype(float)
    btb = b.T @ b
    x = np.column_stack([rows[:, 0], rows[:, 1], rows[:, 1] - rows[:, 0]])
    dense = (b.T @ omega)[None, :] - (gains / 3 * np.sin(x)) @ btb.T
    tol = 1e-14 * (1.0 + np.max(np.abs(omega)) + np.sum(gains))
    assert np.max(np.abs(rows[:, 2:] - dense[:, :2])) <= tol


def test_edge_views_leave_the_incidence_unbuilt(monkeypatch):
    forbid_incidence(monkeypatch)
    rng = np.random.default_rng(23)
    for n in (2, 3, 6):
        net = random_network(n, rng, connected=False)
        x = rng.uniform(-np.pi, np.pi, net.n_edges)
        g_matrix(x, net)
        linearize(net, x)
        if n <= 3:
            vector_field_grid(net, resolution=5)


def test_vector_field_grid_fixed_point_of_bundled_chain():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    rows = vector_field_grid(
        net, x1_range=(0.0, 0.0), x2_range=(-np.pi / 6, -np.pi / 6), resolution=2
    )
    assert np.max(np.abs(rows[:, 2:])) < 1e-12


def test_vector_field_grid_unsupported_sizes():
    net4 = OscillatorNetwork(4, np.zeros(4), np.ones(6))
    with pytest.raises(ValueError):
        vector_field_grid(net4)
    net2 = OscillatorNetwork(2, [1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        vector_field_grid(net2, resolution=1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("end", range(4))
def test_vector_field_grid_rejects_a_non_finite_range(n, bad, end):
    ends = [-1.0, 1.0, -1.0, 1.0]
    ends[end] = bad
    net = OscillatorNetwork(n, np.arange(n, dtype=float), np.ones(n * (n - 1) // 2))
    with pytest.raises(ValueError, match="^grid ranges must be finite$"):
        vector_field_grid(net, x1_range=ends[:2], x2_range=ends[2:], resolution=3)
