"""Oscillator interaction graphs over a fixed complete-graph edge order.

Every network is carried as the complete graph on N vertices with edges in
lexicographic order (1,2), (1,3), ..., (1,N), (2,3), ..., (N-1,N); a zero
coupling gain marks an absent edge, so a single gain vector describes any
interconnection topology. The oriented incidence matrix puts +1 on the
lower-indexed vertex of each edge, which fixes the sign convention for all
edge-space quantities downstream.

Only this module reads the edge order: B^T z (``_edge_diff``), B y
(``_node_sums``), B diag(w) B^T (``_laplacian``) and ``_neighbor_sum`` go
through the edge ends, and ``incidence_matrix`` is the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OscillatorNetwork",
    "edge_count",
    "edge_index",
    "edge_pairs",
    "incidence_matrix",
    "edge_laplacian",
    "is_connected",
]


def edge_count(n_oscillators: int) -> int:
    """Number of edges of the complete graph on ``n_oscillators`` vertices."""
    return n_oscillators * (n_oscillators - 1) // 2


def edge_pairs(n_oscillators: int) -> list[tuple[int, int]]:
    """Lexicographic edge list as 0-based vertex pairs (i, j), i < j."""
    return [(i, j) for i in range(n_oscillators) for j in range(i + 1, n_oscillators)]


def edge_index(n_oscillators: int, i: int, j: int) -> int:
    """Position of edge (i, j), 0-based with i < j, in the lexicographic order."""
    if not 0 <= i < j < n_oscillators:
        raise ValueError(f"invalid edge ({i}, {j}) for {n_oscillators} vertices")
    return i * (2 * n_oscillators - i - 1) // 2 + (j - i - 1)


def incidence_matrix(n_oscillators: int) -> np.ndarray:
    """Oriented incidence matrix of the complete graph, integer entries.

    Column k describes the k-th edge (i, j) of the lexicographic order and
    carries +1 at row i and -1 at row j. Raises ValueError for fewer than
    two oscillators.
    """
    if n_oscillators < 2:
        raise ValueError("need at least 2 oscillators")
    i, j = np.triu_indices(n_oscillators, 1)  # row-major = lexicographic
    b = np.zeros((n_oscillators, len(i)), dtype=np.int64)
    k = np.arange(len(i))
    b[i, k], b[j, k] = 1, -1
    return b


def edge_laplacian(b: np.ndarray) -> np.ndarray:
    """Edge Laplacian B^T B; diagonal 2, off-diagonal entries in {-1, 0, 1}."""
    b = np.asarray(b)
    return b.T @ b


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OscillatorNetwork:
    """A coupled-oscillator network: frequencies plus per-edge gains.

    ``coupling_gains`` is indexed by the lexicographic edge order and must be
    nonnegative; the diagonal coupling matrix used by the dynamics is
    gains/N, so the gain on edge (i, j) is the raw pairwise constant before
    the 1/N normalization of the oscillator equation.
    """

    n_oscillators: int
    natural_frequencies: np.ndarray
    coupling_gains: np.ndarray

    def __post_init__(self):
        n = self.n_oscillators
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("n_oscillators must be an integer >= 2")
        omega = np.asarray(self.natural_frequencies, dtype=float)
        gains = np.asarray(self.coupling_gains, dtype=float)
        if omega.shape != (n,):
            raise ValueError(f"natural_frequencies must have shape ({n},)")
        if gains.shape != (edge_count(n),):
            raise ValueError(f"coupling_gains must have shape ({edge_count(n)},)")
        if not np.all(np.isfinite(omega)):
            raise ValueError("natural_frequencies must be finite")
        if not np.all(np.isfinite(gains)):
            raise ValueError("coupling_gains must be finite")
        if np.any(gains < 0):
            raise ValueError("coupling_gains must be nonnegative")
        object.__setattr__(self, "n_oscillators", int(n))
        object.__setattr__(self, "natural_frequencies", _freeze(omega))
        object.__setattr__(self, "coupling_gains", _freeze(gains))
        object.__setattr__(self, "_k_diag", _freeze(gains / n))
        object.__setattr__(self, "_ends", tuple(map(_freeze, np.triu_indices(n, 1))))
        w = np.zeros((n, n))
        w[self._ends] = self._k_diag  # row-major upper triangle = edge order
        object.__setattr__(self, "_w", _freeze(w + w.T))

    @property
    def n_edges(self) -> int:
        return edge_count(self.n_oscillators)

    @property
    def coupling_diag(self) -> np.ndarray:
        """Diagonal of the coupling matrix, gains/N."""
        return self._k_diag

    @property
    def mean_frequency(self) -> float:
        return float(np.mean(self.natural_frequencies))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OscillatorNetwork):
            return NotImplemented
        return (
            self.n_oscillators == other.n_oscillators
            and np.array_equal(self.natural_frequencies, other.natural_frequencies)
            and np.array_equal(self.coupling_gains, other.coupling_gains)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ counts as equal
        arrays = (self.natural_frequencies + 0.0, self.coupling_gains + 0.0)
        return hash((self.n_oscillators, *(a.tobytes() for a in arrays)))


def _edge_diff(net: OscillatorNetwork, z: np.ndarray) -> np.ndarray:
    """B^T z: per edge (i, j), z_i - z_j (node index last)."""
    i, j = net._ends
    return z.take(i, -1) - z.take(j, -1)  # axis passed by position: cheaper call


def _node_sums(net: OscillatorNetwork, y: np.ndarray) -> np.ndarray:
    """B y for edge values y (edge index last): two bincounts, offset so
    one call covers all rows."""
    i, j = net._ends
    n = net.n_oscillators
    rows = y.reshape(-1, y.shape[-1])
    size = len(rows) * n
    at = n * np.arange(len(rows))[:, None]
    by = np.bincount((at + i).ravel(), rows.ravel(), size) - np.bincount(
        (at + j).ravel(), rows.ravel(), size
    )
    return by.reshape(y.shape[:-1] + (n,))


def _laplacian(net: OscillatorNetwork, w: np.ndarray) -> np.ndarray:
    """Weighted Laplacian B diag(w) B^T from edge weights w (edge index last)."""
    n = net.n_oscillators
    lap = np.zeros(w.shape[:-1] + (n, n))
    lap[(..., *net._ends)] = -w
    lap += np.swapaxes(lap, -1, -2)
    lap[..., np.arange(n), np.arange(n)] = -lap.sum(axis=-1)
    return lap


def _neighbor_sum(net: OscillatorNetwork, c: np.ndarray) -> np.ndarray:
    """Per edge (i, j), the sum of c over the other edges at i or j:
    s_i + s_j - 2 c_ij with s the node strength of c (edge index last)."""
    i, j = net._ends
    s = np.diagonal(_laplacian(net, c), axis1=-2, axis2=-1)
    return s[..., i] + s[..., j] - 2.0 * c


def is_connected(net: OscillatorNetwork) -> bool:
    """True iff the graph on edges with positive gain is connected.

    Exact integer union-find; no tolerance enters the topology verdict.
    """
    n = net.n_oscillators
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    on = net.coupling_gains > 0.0
    i, j = net._ends
    for a, b in zip(i[on].tolist(), j[on].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    root = find(0)
    return all(find(v) == root for v in range(1, n))
