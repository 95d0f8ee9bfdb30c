"""Incidence matrix, edge Laplacian, edge products and connectivity tests."""

from fractions import Fraction

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
from phaselock.network import _btb, _edge_diff, _laplacian, _neighbor_sum


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


# integers times 2^-10 keep every sum of up to 2^22 of them exact
EXACT = st.integers(-(2**30), 2**30).map(lambda k: k * 2.0**-10)
REAL = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(product_cases(lambda n: n, st.floats(-1e6, 1e6)))
def test_edge_diff_is_b_transpose_exactly(case):
    net, z, b = case
    assert np.array_equal(_edge_diff(net, z), z @ b)


@settings(max_examples=200, deadline=None)
@given(product_cases(edge_count, EXACT))
def test_btb_is_b_transpose_b_exactly(case):
    net, y, b = case
    assert np.array_equal(_btb(net, y), y @ (b.T @ b))


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


# zero, subnormal, tiny and huge magnitudes with ordinary values; no sum of
# the up to 2(N - 2) other edges at an edge overflows
WIDE = st.sampled_from(
    [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e16, -1e16, 1e300, -1e300]
) | st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(product_cases(edge_count, WIDE | st.floats(-1e300, 1e300)))
def test_neighbor_sum_rounds_only_the_other_edges(case):
    # the error is bounded by the other edges alone: an edge's own value,
    # however large, does not enter the sum and cannot swamp the rest
    net, c, _ = case
    n = net.n_oscillators
    got = _neighbor_sum(net, c)
    assert got.shape == c.shape
    eps = Fraction(np.finfo(float).eps)
    for values, sums in zip(c.reshape(-1, net.n_edges), got.reshape(-1, net.n_edges)):
        exact = [Fraction(0)] * n  # the sum of c, and of |c|, at each node
        size = [Fraction(0)] * n
        for (i, j), value in zip(edge_pairs(n), map(Fraction, values)):
            for node in (i, j):
                exact[node] += value
                size[node] += abs(value)
        for (i, j), value, total in zip(edge_pairs(n), map(Fraction, values), sums):
            want = exact[i] + exact[j] - 2 * value
            others = size[i] + size[j] - 2 * abs(value)
            assert abs(Fraction(total) - want) <= n * eps * others


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


@st.composite
def sparse_graphs(draw):
    """A path through all nodes in shuffled order, the same path with one
    edge dropped, or a star, each edge with a gain of 1 or the least
    subnormal (whose coupling matrix entry gain / N underflows to 0)."""
    n = draw(st.integers(2, 60))
    order = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["path", "cut-path", "star"]))
    if shape == "star":
        pairs = [(order[0], v) for v in order[1:]]
    else:
        pairs = list(zip(order, order[1:]))
        if shape == "cut-path":
            del pairs[draw(st.integers(0, n - 2))]
    pairs = [(min(p), max(p)) for p in pairs]
    gains = np.zeros(edge_count(n))
    for i, j in pairs:
        gains[edge_index(n, i, j)] = draw(st.sampled_from([1.0, 5e-324]))
    return OscillatorNetwork(n, np.zeros(n), gains), pairs


@settings(max_examples=300, deadline=None)
@given(sparse_graphs())
def test_is_connected_matches_reachability_on_long_paths_stars_and_subnormal_gains(graph):
    net, pairs = graph
    assert is_connected(net) == brute_force_connected(net.n_oscillators, pairs)


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


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: edge_index(4, 2, 1), r"invalid edge \(2, 1\) for 4"),
        (lambda: edge_index(4, 0, 4), r"invalid edge \(0, 4\) for 4"),
        (lambda: edge_index(4, -1, 2), r"invalid edge \(-1, 2\) for 4"),
        (lambda: OscillatorNetwork(3, [1.0, 2.0, 3.0], [1.0, np.nan, 1.0]), "gains must be finite"),
        (lambda: OscillatorNetwork(3, [1.0, 2.0, 3.0], [np.inf, 1.0, 1.0]), "gains must be finite"),
        (lambda: OscillatorNetwork(3, [1.0, 2.0, 3.0], [1.0, 1.0, -np.inf]), "gains must be finite"),
        (lambda: OscillatorNetwork(3, [1.0, 2.0], [1.0, 1.0, 1.0]),
         r"^natural_frequencies must have shape \(3,\)$"),
        (lambda: OscillatorNetwork(3, [1.0, np.nan, 3.0], [1.0, 1.0, 1.0]),
         r"^natural_frequencies must be finite$"),
        (lambda: OscillatorNetwork(3, [1.0, 2.0, 3.0], [1.0, 1.0]),
         r"^coupling_gains must have shape \(3,\)$"),
    ],
    ids=["edge-order", "edge-range", "edge-negative", "gain-nan", "gain-inf", "gain-minus-inf",
         "omega-shape", "omega-nan", "gain-shape"],
)
def test_bad_edges_and_gains_are_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("other", [None, 3, "chain", (3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])])
def test_a_network_equals_no_other_type(other):
    net = OscillatorNetwork(3, [1.0, 2.0, 3.0], [9.0, 6.0, 0.0])
    assert net.__eq__(other) is NotImplemented
    assert net != other and not net == other


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
