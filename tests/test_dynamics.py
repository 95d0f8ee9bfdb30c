"""Node dynamics, edge transform, integration, and field-grid tests."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phaselock.analysis
import phaselock.dynamics
import phaselock.network
import phaselock.planar
from phaselock import (
    EdgeState,
    OscillatorNetwork,
    edge_index,
    edge_transform,
    g_matrix,
    incidence_matrix,
    linearize,
    simulate,
    simulate_many,
    sync_frequency,
    theta_dot,
    vector_field_grid,
    wrap_phase,
)
from phaselock.dynamics import SYNC_TOL, SYNC_WINDOW, Trajectory, _rk4_steps
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


def _whole_array_wrap(x):
    """The wrap as one pass over the whole array, full-size mask and all."""
    a = np.array(x, dtype=float)
    np.mod(a, 2.0 * np.pi, out=a)
    np.subtract(a, 2.0 * np.pi, out=a, where=a > np.pi)
    return a


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(), (0,), (1,), (7,), (2047,), (2048,), (2049,), (4095,), (4097,),
                           (9000,), (0, 3), (5, 0),
                           (3, 2, 0), (501, 10, 4), (3, 1500, 2), (2, 3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_wrap_matches_the_whole_array_formula(shape, seed):
    rng = np.random.default_rng(seed)
    # multiples of pi and their neighbours, where the mask's test is tight
    k_pi = rng.integers(-1000, 1001, shape) * np.pi
    pool = np.stack([
        rng.uniform(-1e6, 1e6, shape), rng.uniform(-7.0, 7.0, shape), k_pi,
        np.nextafter(k_pi, np.inf), np.nextafter(k_pi, -np.inf), np.zeros(shape), -np.zeros(shape),
    ])
    x = np.array(np.choose(rng.integers(0, len(pool), shape), pool))
    want = _whole_array_wrap(x)
    assert wrap_phase(x).tobytes() == want.tobytes()
    a = x.copy()
    assert phaselock.dynamics._wrap_in_place(a) is a and a.tobytes() == want.tobytes()
    # a strided view is wrapped where it lies, and nothing beside it moves
    if x.ndim:
        wide = np.repeat(x, 2, axis=-1)
        phaselock.dynamics._wrap_in_place(wide[..., ::2])
        assert wide[..., ::2].tobytes() == want.tobytes()
        assert wide[..., 1::2].tobytes() == x.tobytes()


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


@pytest.mark.parametrize("shape", [(), (3, 3, 2), (3, 1, 1, 1)])
def test_theta_dot_rejects_a_state_that_is_neither_one_nor_a_batch(shape):
    # ndarray.dot would contract the second axis of an (N, N, k) batch
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 1.0])
    theta = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    with pytest.raises(ValueError, match=f"theta must have 1 or 2 dimensions, got {len(shape)}"):
        theta_dot(theta, net)


@pytest.mark.parametrize("x_shape,v_shape", [(3, 2), (2, 3), ((2, 2), (2, 2)), ((), ())])
def test_edge_state_needs_equal_1d_arrays(x_shape, v_shape):
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        EdgeState(x=np.zeros(x_shape), v=np.zeros(v_shape))


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


@pytest.mark.parametrize(
    "theta, rates",
    [([0, 0, 0], [0, 0]), ([0, 0], [0, 0, 0]), ([0, 0, 0], [[0, 0, 0]]), (0.0, [0, 0, 0])],
    ids=["short-rates", "short-phases", "rates-row", "scalar-phase"],
)
def test_edge_transform_checks_each_input_shape(theta, rates):
    with pytest.raises(ValueError, match=r"^theta and theta_dot must have shape \(3,\)$"):
        edge_transform(theta, rates, _zero_network(3))


@pytest.mark.parametrize(
    "theta, rates",
    [
        ([0, np.inf, 0], [0, 0, 0]),
        ([0, np.nan, 0], [0, 0, 0]),
        ([0, 0, 0], [0, -np.inf, 0]),
        ([0, 0, 0], [np.nan, 0, 0]),
    ],
    ids=["inf-phase", "nan-phase", "inf-rate", "nan-rate"],
)
def test_edge_transform_rejects_non_finite_inputs(theta, rates):
    with pytest.raises(ValueError, match="^theta and theta_dot must be finite$"):
        edge_transform(theta, rates, _zero_network(3))


def test_edge_transform_past_the_float_range_names_x_and_gives_v_as_inf():
    # each input is finite, but 1e308 - (-1e308) is not
    huge = np.array([1e308, -1e308, 0.0])
    with pytest.raises(ValueError, match="^theta has a phase difference beyond the float range$"):
        edge_transform(huge, np.zeros(3), _zero_network(3))
    state = edge_transform(np.zeros(3), huge, _zero_network(3))
    assert np.array_equal(state.v, [np.inf, 1e308, -1e308])


@pytest.mark.parametrize(
    "x", [np.inf, -np.inf, np.nan, [0.0, np.inf], [[np.nan]]],
    ids=["inf", "-inf", "nan", "inf-entry", "nan-entry"],
)
def test_wrap_phase_rejects_non_finite_angles(x):
    with pytest.raises(ValueError, match="^x must be finite$"):
        wrap_phase(x)


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
    assert np.max(np.abs(mean_rate - sync_frequency(net))) < 1e-9


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


@pytest.mark.parametrize("stop_on_sync", [False, True])
@pytest.mark.parametrize("dt", [1e-18, 1e-20, 1e-310])
def test_a_sync_window_longer_than_any_int_leaves_a_tiny_step_run_unsynchronized(dt, stop_on_sync):
    # SYNC_WINDOW / dt steps is beyond int64 at 1e-20 and infinite at 1e-310
    net = OscillatorNetwork(3, [1.0, 1.0, 1.0], [9.0, 6.0, 1.0])
    run = simulate(net, [0.0, 0.0, 0.0], 10 * dt, dt, stop_on_sync=stop_on_sync)
    assert run.n_steps == 10
    assert run.synchronized_at is None


def test_a_step_count_beyond_the_float_range_is_a_value_error():
    net = OscillatorNetwork(2, [1.0, 0.0], [1.0])
    calls = [
        lambda: simulate(net, [0.0, 0.0], 1e300, 1e-300),
        lambda: simulate_many(net, np.zeros((2, 3)), 1e300, 1e-300),
        lambda: phaselock.planar.simulate_planar(
            phaselock.planar.PlanarParams(k=1.0, delta_omega=0.5), np.zeros(2), 1e300, 1e-300
        ),
        lambda: phaselock.analysis.invariance_certificate(net, 2, 1e300, 1e-300, seed=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^t_end / dt must be finite$"):
            call()


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
            y = y + (dt / 6.0) * fy + (dt / 3.0) * k2 + (dt / 3.0) * k3 + (dt / 6.0) * k4
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


def test_a_field_spread_past_the_float_range_counts_as_out_of_sync():
    # one finite step at omega = +-1e308, whose field spread is inf
    traj = simulate(OscillatorNetwork(2, [1e308, -1e308], [0.3]), [0.0, 0.0], 0.005, 0.005)
    assert traj.synchronized_at is None and np.isfinite(traj.thetas).all()


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


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3, 5, 10, 50]),
    m=st.integers(1, 3),
    dt=st.sampled_from([0.001, 0.01, 0.05]),
    steps=st.integers(1, 2000),
    gain=st.sampled_from([0.3, 3.0, 30.0]),
    spread=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_phase_sum_advances_at_the_frequency_sum(n, m, dt, steps, gain, spread, seed):
    # 1^T B = 0, so sum(theta) - t sum(omega) is constant along the flow;
    # a skipped step or a wrong stage weight moves it by far more than round-off
    rng = np.random.default_rng(seed)
    e = n * (n - 1) // 2
    net = OscillatorNetwork(
        n, rng.uniform(-spread, spread, n), rng.uniform(0.0, gain, e) * (rng.random(e) < 0.8)
    )
    theta0s = rng.uniform(-np.pi, np.pi, (n, m))
    thetas = np.array([y for _, y, _ in _rk4_steps(net, theta0s, steps, dt)])
    t = np.arange(steps + 1)[:, None] * dt
    drift = thetas.sum(axis=1) - theta0s.sum(axis=0) - t * net.natural_frequencies.sum()
    # measured at most 0.41 of this bound, and 8.0e-11 where |theta| reaches 1e3
    assert np.abs(drift).max() <= 2 * np.finfo(float).eps * n * steps * np.abs(thetas).max()


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


def _streak_fields(rng, window_steps, m, n_rows):
    """Fields (T, 2, m) whose spread runs in alternating streaks per column,
    and a sync_step per column that marks some runs synchronized already."""
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
    return dots, pre


@settings(max_examples=300, deadline=None)
@given(
    n_rows=st.integers(0, 5000),
    row_values=st.integers(1, 5000),
    budget=st.sampled_from([1, 2, 7, 512, 2047, 2048, 2049]) | st.integers(1, 10**5),
)
def test_row_slices_tile_the_rows_in_order_within_the_budget(n_rows, row_values, budget):
    slices = list(phaselock.dynamics._row_slices(n_rows, row_values, budget))
    blocks = [range(n_rows)[rows] for rows in slices]
    assert [r for block in blocks for r in block] == list(range(n_rows))
    assert all(1 <= len(block) <= max(1, budget // row_values) for block in blocks)


def test_row_slices_of_empty_rows_take_a_budget_of_rows_at_a_time():
    # a (5000, 0) array: rows without values still come in bounded blocks
    slices = list(phaselock.dynamics._row_slices(5000, 0))
    assert [(s.start, s.stop) for s in slices] == [(0, 2048), (2048, 4096), (4096, 6144)]


@settings(max_examples=200, deadline=None)
@given(
    window_steps=st.sampled_from([1, 2, 3, 100]),
    m=st.integers(1, 5),
    n_rows=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sync_counter_matches_the_per_step_update(window_steps, m, n_rows, seed):
    rng = np.random.default_rng(seed)
    dots, pre = _streak_fields(rng, window_steps, m, n_rows)

    want = _per_step_sync(dots, window_steps, np.zeros(m, dtype=int), pre.copy())
    run, sync_step = np.zeros(m, dtype=int), pre.copy()
    cuts = np.flatnonzero(rng.random(n_rows) < rng.choice([0.02, 0.2, 0.9])) + 1
    start = 0
    for stop in [*cuts[cuts < n_rows], n_rows]:
        phaselock.dynamics._count_sync(dots[start:stop], start, run, sync_step, window_steps)
        assert np.array_equal(run, want[stop - 1][0])
        assert np.array_equal(sync_step, want[stop - 1][1])
        start = stop


@settings(max_examples=200, deadline=None)
@given(
    window_steps=st.sampled_from([1, 2, 3, 15, 16, 17, 100]),
    m=st.integers(1, 5),
    n_rows=st.integers(1, 400),
    size=st.integers(1, 420),
    sub_values=st.sampled_from([1, 2, 7, 16, 512]),
    stop_early=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_counting_in_sub_blocks_of_any_size_matches_one_pass(
    window_steps, m, n_rows, size, sub_values, stop_early, seed
):
    rng = np.random.default_rng(seed)
    dots, pre = _streak_fields(rng, window_steps, m, n_rows)
    if stop_early:  # an early-stopping batch ends at the step its last run syncs
        states = _per_step_sync(dots, window_steps, np.zeros(m, dtype=int), pre.copy())
        done = [k for k, (_, sync) in enumerate(states) if k > 0 and (sync >= 0).all()]
        dots = dots[: done[0] + 1] if done else dots

    # one pass: the whole stored batch as a single block of rows
    whole_run, whole_sync = np.zeros(m, dtype=int), pre.copy()
    with mock.patch.object(phaselock.dynamics, "_SYNC_VALUES", len(dots) * m):
        phaselock.dynamics._count_sync(dots, 0, whole_run, whole_sync, window_steps)
    # calls of ``size`` steps, each split into sub-blocks of sub_values // m rows
    run, sync_step = np.zeros(m, dtype=int), pre.copy()
    with mock.patch.object(phaselock.dynamics, "_SYNC_VALUES", sub_values):
        for start in range(0, len(dots), size):
            phaselock.dynamics._count_sync(dots[start : start + size], start, run, sync_step,
                                           window_steps)
    assert np.array_equal(run, whole_run)
    assert np.array_equal(sync_step, whole_sync)


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


def test_early_stop_peak_memory_of_five_network_stays_below_1_2mb(traced_peak):
    # the run stops after 3294 of 20000 steps; storing the whole horizon
    # peaked at 1.87 MB, the steps taken are 0.26 MB
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    net = five_network_network()
    traj, peak = traced_peak(simulate, net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
    assert traj.n_steps < 20000
    assert peak < 1.2e6, f"simulate peak {peak / 1e6:.2f} MB"


def test_early_stop_peak_memory_of_five_network_stays_below_0_4mb(traced_peak):
    # the 3295 steps taken are 0.26 MB; growing the store by concatenation
    # and copying out the steps taken peaked at 0.59 MB
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    net = five_network_network()
    traj, peak = traced_peak(simulate, net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
    assert traj.n_steps == 3294
    assert peak <= 0.40e6, f"simulate peak {peak / 1e6:.3f} MB"


def test_early_stop_under_a_tracer_that_reads_frame_locals():
    # debuggers read frame.f_locals at every line; on Python 3.11 and 3.12
    # that snapshot holds a second reference to the early-stop store
    from phaselock.experiments import FIVE_NETWORK_THETA0, five_network_network

    net = five_network_network()
    plain = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)

    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced = simulate(net, FIVE_NETWORK_THETA0, 100.0, 0.005, stop_on_sync=True)
    finally:
        sys.settrace(previous)
    assert traced.n_steps == plain.n_steps == 3294
    assert np.array_equal(traced.thetas, plain.thetas)
    assert np.array_equal(traced.theta_dots, plain.theta_dots)
    assert traced.synchronized_at == plain.synchronized_at is not None


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


def test_simulate_many_peak_memory_at_n10_stays_below_4_5mb(traced_peak):
    # 40 columns of 501 stored steps at N = 10 are 1.6 MB of phases and
    # 1.6 MB of fields; the gate fails if either is held twice
    rng = np.random.default_rng(10)
    net = random_network(10, rng)
    theta0s = rng.uniform(-1.0, 1.0, (10, 40))
    trajectories, peak = traced_peak(simulate_many, net, theta0s, 5.0, 0.01)
    assert len(trajectories) == 40 and trajectories[0].n_steps == 500
    assert peak < 4.5e6, f"simulate_many peak {peak / 1e6:.2f} MB"


def test_simulate_many_peaks_within_0_1_mb_of_its_stored_arrays(traced_peak):
    # a full-size wrap mask (0.2 MB) or the sync counter's (rows, m)
    # temporaries over a whole window of steps would break the gate
    rng = np.random.default_rng(10)
    net = random_network(10, rng)
    theta0s = rng.uniform(-1.0, 1.0, (10, 40))
    simulate_many(net, theta0s, 0.05, 0.01)  # first call pays one-off set-up
    trajectories, peak = traced_peak(simulate_many, net, theta0s, 5.0, 0.01)
    stored = 2 * 501 * 10 * 40 * 8  # phases and fields, 3.206 MB
    assert len(trajectories) == 40 and trajectories[0].n_steps == 500
    assert peak - stored <= 0.1e6, f"{(peak - stored) / 1e6:.3f} MB above the stored arrays"


def test_early_stop_holds_only_the_steps_taken():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    traj = simulate(net, [0.2, 0.3, -0.1], 200.0, 0.01, stop_on_sync=True)
    assert traj.synchronized_at is not None and traj.n_steps < 20000
    # phases and fields view one store, cut to the steps taken
    store = traj.thetas.base
    assert store is traj.theta_dots.base
    assert store.nbytes == traj.thetas.nbytes + traj.theta_dots.nbytes


def test_a_batch_views_one_store_grown_alike_whether_or_not_it_may_stop():
    # uncoupled oscillators with distinct frequencies never sync, so both
    # batches run the whole horizon, past the store's first 256 rows
    net = OscillatorNetwork(3, [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    theta0s = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    runs = [simulate_many(net, theta0s, 3.0, 0.01, stop_on_sync=stop) for stop in (False, True)]
    stores = [batch[0].thetas.base for batch in runs]
    for batch, store in zip(runs, stores):
        assert all(t.thetas.base is t.theta_dots.base is store for t in batch)
        assert store.shape == (301, 2, 3, 2) and batch[0].synchronized_at is None
    assert stores[0].tobytes() == stores[1].tobytes()


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
