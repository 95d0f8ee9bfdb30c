"""Incidence matrix, edge Laplacian, edge products and connectivity tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phaselock import (
    OscillatorNetwork,
    edge_count,
    edge_index,
    edge_laplacian,
    edge_pairs,
    incidence_matrix,
    is_connected,
)
from phaselock.network import _edge_diff, _laplacian, _neighbor_sum, _node_sums


def brute_force_connected(n, active_pairs):
    """Reachability oracle: BFS from vertex 0 over the active edges."""
    adj = {v: set() for v in range(n)}
    for i, j in active_pairs:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_incidence_two_oscillators():
    assert np.array_equal(incidence_matrix(2), np.array([[1], [-1]]))


def test_incidence_three_oscillators():
    expected = np.array([[1, 1, 0], [-1, 0, 1], [0, -1, -1]])
    assert np.array_equal(incidence_matrix(3), expected)


def test_incidence_four_oscillators():
    b = incidence_matrix(4)
    assert b.shape == (4, 6)
    # column for edge (2,3) in 1-based lexicographic order
    assert np.array_equal(b[:, 3], np.array([0, 1, -1, 0]))
    # oracle: rebuild every column from the enumerated pair list
    for k, (i, j) in enumerate(edge_pairs(4)):
        col = np.zeros(4, dtype=int)
        col[i], col[j] = 1, -1
        assert np.array_equal(b[:, k], col)


def test_incidence_rejects_small_n():
    with pytest.raises(ValueError):
        incidence_matrix(1)


def test_edge_index_matches_pair_enumeration():
    for n in range(2, 8):
        for k, (i, j) in enumerate(edge_pairs(n)):
            assert edge_index(n, i, j) == k


def test_edge_laplacian_single_edge():
    assert np.array_equal(edge_laplacian(incidence_matrix(2)), np.array([[2]]))


def test_edge_laplacian_three_oscillators():
    expected = np.array([[2, 1, -1], [1, 2, 1], [-1, 1, 2]])
    assert np.array_equal(edge_laplacian(incidence_matrix(3)), expected)


@pytest.mark.parametrize("n", range(3, 7))
def test_edge_laplacian_offdiagonal_count(n):
    # each edge shares a vertex with exactly 2(n-2) other edges
    lap = edge_laplacian(incidence_matrix(n))
    off = lap - np.diag(np.diag(lap))
    assert np.all(np.diag(lap) == 2)
    assert set(np.unique(off)) <= {-1, 0, 1}
    assert np.all(np.count_nonzero(off, axis=1) == 2 * (n - 2))


@pytest.mark.parametrize("n", range(2, 9))
def test_incidence_identities(n):
    b = incidence_matrix(n)
    assert np.array_equal(b @ (b.T @ b), n * b)  # exact integer arithmetic
    assert np.linalg.matrix_rank(b.T) == n - 1
    assert np.all(b.sum(axis=0) == 0)


# The edge products through the edge ends against the dense incidence, at
# the leading shapes their callers use: one state, a batch, a stack of them.


@st.composite
def product_cases(draw, size, elements):
    """A network at N in 2..12, a leading shape, and values of shape
    leading + (size(N),) drawn from ``elements``."""
    n = draw(st.integers(2, 12))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    values = draw(arrays(float, lead + (size(n),), elements=elements))
    net = OscillatorNetwork(n, np.zeros(n), np.zeros(edge_count(n)))
    return net, values, incidence_matrix(n).astype(float)


# integers times 2^-10 keep every sum of up to 11 of them exact
EXACT = st.integers(-(2**30), 2**30).map(lambda k: k * 2.0**-10)
REAL = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(product_cases(lambda n: n, st.floats(-1e6, 1e6)))
def test_edge_diff_is_b_transpose_exactly(case):
    net, z, b = case
    assert np.array_equal(_edge_diff(net, z), z @ b)


@settings(max_examples=200, deadline=None)
@given(product_cases(edge_count, EXACT))
def test_node_sums_are_b_exactly(case):
    net, y, b = case
    assert np.array_equal(_node_sums(net, y), y @ b.T)


@settings(max_examples=200, deadline=None)
@given(product_cases(edge_count, REAL))
def test_laplacian_is_b_diag_w_b_transpose(case):
    net, w, b = case
    dense = (b * w[..., None, :]) @ b.T
    got = _laplacian(net, w)
    assert got.shape == dense.shape
    scale = 1.0 + np.abs(w).sum(axis=-1)[..., None, None]
    assert np.all(np.abs(got - dense) <= 1e-14 * scale)


@settings(max_examples=200, deadline=None)
@given(product_cases(edge_count, REAL))
def test_neighbor_sum_is_the_off_diagonal_edge_laplacian(case):
    net, c, b = case
    # |B^T B| has 2 on the diagonal and 1 where two edges share a vertex
    adjacent = np.abs(b.T @ b) - 2.0 * np.eye(net.n_edges)
    got = _neighbor_sum(net, c)
    assert got.shape == c.shape
    scale = 1.0 + np.abs(c).sum(axis=-1)[..., None]
    assert np.all(np.abs(got - c @ adjacent) <= 1e-14 * scale)


def test_is_connected_open_chain():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [3.0, 2.0, 0.0])
    assert is_connected(net)


def test_is_connected_isolated_vertex():
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0])
    assert not is_connected(net)


def test_is_connected_five_oscillator_topology():
    from phaselock.experiments import five_network_network

    assert is_connected(five_network_network())


@pytest.mark.parametrize("n", range(2, 6))
def test_is_connected_matches_reachability_oracle(n, rng=None):
    rng = np.random.default_rng(314 + n)
    pairs = edge_pairs(n)
    for _ in range(40):
        mask = rng.random(edge_count(n)) < 0.4
        gains = np.where(mask, rng.uniform(0.5, 2.0, edge_count(n)), 0.0)
        net = OscillatorNetwork(n, np.zeros(n), gains)
        active = [p for p, m in zip(pairs, mask) if m]
        assert is_connected(net) == brute_force_connected(n, active)


def test_network_validation():
    with pytest.raises(ValueError):
        OscillatorNetwork(1, [1.0], [])
    with pytest.raises(ValueError):
        OscillatorNetwork(3, [1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        OscillatorNetwork(3, [1.0, 2.0, 3.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        OscillatorNetwork(3, [1.0, 2.0, 3.0], [1.0, -0.1, 1.0])
    with pytest.raises(ValueError):
        OscillatorNetwork(3, [1.0, np.nan, 3.0], [1.0, 1.0, 1.0])


def test_network_equality_and_immutability():
    a = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    b = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    c = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 1.0])
    assert a == b and a != c
    with pytest.raises(ValueError):
        a.coupling_gains[0] = 5.0


def test_equal_networks_hash_equal():
    a = OscillatorNetwork(3, [1.0, 0.0, 3.0], [9.0, 6.0, 0.0])
    b = OscillatorNetwork(3, np.array([1.0, 0.0, 3.0]), np.array([9.0, 6.0, 0.0]))
    # -0.0 compares equal to 0.0, so it must hash equal too
    c = OscillatorNetwork(3, [1.0, -0.0, 3.0], [9.0, 6.0, -0.0])
    d = OscillatorNetwork(3, [1.0, 0.0, 3.0], [9.0, 6.0, 1.0])
    assert a == b == c and a != d
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c, d}) == 2
    assert {a: "x"}[c] == "x"
