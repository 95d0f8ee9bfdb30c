"""Oscillator interaction graphs over a fixed complete-graph edge order.

Every network is carried as the complete graph on N vertices with edges in
lexicographic order (1,2), (1,3), ..., (1,N), (2,3), ..., (N-1,N); a zero
coupling gain marks an absent edge, so a single gain vector describes any
interconnection topology. The oriented incidence matrix puts +1 on the
lower-indexed vertex of each edge, which fixes the sign convention for all
edge-space quantities downstream.

Only this module reads the edge order: B^T z (``_edge_diff``), B^T B y
(``_btb``) and ``_node_matrix`` go through the edge ends, and
``incidence_matrix`` is the dense reference. ``_node_matrix`` is the one
scatter of edge values into a symmetric N x N matrix: the coupling matrix,
B diag(w) B^T (``_laplacian``), ``_neighbor_sum`` and the connectivity
verdict all read it. ``_frame`` is the one power-of-two frame free of overflow.
"""

from __future__ import annotations

import math
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


def _vector(x, n: int, name: str) -> np.ndarray:
    """``x`` as a float array of shape (n,) with finite entries, or ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OscillatorNetwork:
    """A coupled-oscillator network: frequencies plus per-edge gains.

    ``coupling_gains`` is indexed by the lexicographic edge order and must be
    nonnegative; ``coupling_diag`` stores gains/N, the diagonal coupling
    matrix K of the dynamics, so the gain on edge (i, j) is the raw pairwise
    constant before the 1/N normalization of the oscillator equation.

    ``_frame`` stores the power of two s the edge field, gain thresholds,
    set-H slack and attracting-set margin divide omega and the gains by: 1
    unless their largest magnitude passes 2^(1000 - 3 bit_length(N)). No sum
    overflows there, and ``_unframe`` scales back exactly: a value is inf
    only past the float range, and where s = 1 the plain formula. The cost
    where s > 1: a subnormal omega, gain or result loses bits and may flush
    to 0.
    """

    n_oscillators: int
    natural_frequencies: np.ndarray
    coupling_gains: np.ndarray

    def __post_init__(self):
        n = self.n_oscillators
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("n_oscillators must be an integer >= 2")
        omega = _vector(self.natural_frequencies, n, "natural_frequencies")
        gains = _vector(self.coupling_gains, edge_count(n), "coupling_gains")
        if np.any(gains < 0):
            raise ValueError("coupling_gains must be nonnegative")
        object.__setattr__(self, "n_oscillators", int(n))
        object.__setattr__(self, "natural_frequencies", _freeze(omega))
        object.__setattr__(self, "coupling_gains", _freeze(gains))
        object.__setattr__(self, "coupling_diag", _freeze(gains / n))
        object.__setattr__(self, "_ends", tuple(map(_freeze, np.triu_indices(n, 1))))
        object.__setattr__(self, "_w", _freeze(_node_matrix(self, self.coupling_diag)))
        top = math.frexp(max(float(np.abs(omega).max()), float(gains.max())))[1]
        object.__setattr__(self, "_frame", 2.0 ** max(0, top - (1000 - 3 * int(n).bit_length())))

    @property
    def n_edges(self) -> int:
        return edge_count(self.n_oscillators)

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


def _edge_diff(net: OscillatorNetwork, z: np.ndarray, edges=slice(None)) -> np.ndarray:
    """B^T z: per edge (i, j) at the positions ``edges``, z_i - z_j (node
    index last)."""
    i, j = net._ends
    return z.take(i[edges], -1) - z.take(j[edges], -1)  # axis by position: cheaper call


def _btb(net: OscillatorNetwork, y: np.ndarray) -> np.ndarray:
    """B^T B y for edge values y (edge index last): the node sums B y by
    two bincounts, offset so one call covers all rows, then their edge
    differences."""
    i, j = net._ends
    n = net.n_oscillators
    rows = y.reshape(-1, y.shape[-1])
    size = len(rows) * n
    at = n * np.arange(len(rows))[:, None]
    by = np.bincount((at + i).ravel(), rows.ravel(), size) - np.bincount(
        (at + j).ravel(), rows.ravel(), size
    )
    return _edge_diff(net, by.reshape(y.shape[:-1] + (n,)))


def _node_matrix(net: OscillatorNetwork, c: np.ndarray) -> np.ndarray:
    """The symmetric node matrix of edge values c (edge index last, batch
    axes leading): c_e at (i, j) and (j, i) for each edge e = (i, j), zero
    elsewhere, in c's dtype, so a boolean mask gives the adjacency."""
    n = net.n_oscillators
    m = np.zeros(c.shape[:-1] + (n, n), dtype=c.dtype)
    m[(..., *net._ends)] = c  # row-major upper triangle = edge order
    return m + np.swapaxes(m, -1, -2)


def _laplacian(net: OscillatorNetwork, w: np.ndarray) -> np.ndarray:
    """Weighted Laplacian B diag(w) B^T from edge weights w (edge index last)."""
    n = net.n_oscillators
    lap = _node_matrix(net, -w)
    lap[..., np.arange(n), np.arange(n)] = -lap.sum(axis=-1)
    return lap


def _neighbor_sum(net: OscillatorNetwork, c: np.ndarray) -> np.ndarray:
    """Per edge (i, j), the sum of c over the other edges at i or j (edge
    index last): rows i and j of the symmetric node matrix of c, each summed
    before and after the edge's own entry by two exclusive running sums, so
    that nothing is subtracted and a large c_ij cannot swamp the others."""
    i, j = net._ends
    m = _node_matrix(net, c)
    apart = np.zeros_like(m)
    np.add.accumulate(m[..., :-1], axis=-1, out=apart[..., 1:])
    apart[..., :-1] += np.add.accumulate(m[..., :0:-1], axis=-1)[..., ::-1]
    return apart[..., i, j] + apart[..., j, i]


def _unframe(s: float, value):
    """value, computed in the frame s, scaled back: inf past the float range."""
    with np.errstate(over="ignore"):
        return s * value


def is_connected(net: OscillatorNetwork) -> bool:
    """True iff the graph on edges with positive gain is connected.

    Reachability from node 0 over the boolean node matrix, one frontier at a
    time; no tolerance enters the topology verdict.
    """
    adjacent = _node_matrix(net, net.coupling_gains > 0.0)
    seen = frontier = np.arange(net.n_oscillators) == 0
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())
