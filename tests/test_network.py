"""Incidence matrix, edge Laplacian, and connectivity tests."""

import numpy as np
import pytest

from phaselock import (
    OscillatorNetwork,
    edge_count,
    edge_index,
    edge_laplacian,
    edge_pairs,
    incidence_matrix,
    is_connected,
)


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
