"""Immutable graph values: construction, normalization, connectivity, flips.

``Graph`` holds a dense symmetric binary adjacency (the attack gradient is a
dense N x N matrix anyway, and the graphs here have a few thousand nodes at
most). A graph is validated once, at the boundary: ``Graph(...)``,
``build_graph`` (the one edge-list -> adjacency routine) and ``load_dataset``
check every field. ``flip_edge`` then derives new values from a valid graph
without re-validating them; it is the only code that toggles an adjacency
entry. ``largest_component`` is the one connectivity routine, and
``normalize_adjacency`` builds the surrogate's propagation matrix
``Ahat = D^{-1/2} (A + I) D^{-1/2}`` in CSR form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

Array = np.ndarray


def _frozen(a: Array) -> Array:
    """Return a read-only copy of ``a`` (C-contiguous)."""
    out = np.ascontiguousarray(a).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Graph:
    """An undirected, unweighted attributed graph with a labeled/unlabeled split.

    Attributes
    ----------
    adjacency : (N, N) float array
        Symmetric binary adjacency with zero diagonal.
    features : (N, d) float array
        Node feature matrix; every entry finite.
    labels : (N,) int array
        Class index per node, in ``{0 .. n_classes-1}``.
    labeled_mask : (N,) bool array
        True for nodes whose label is visible to the attacker (the training
        set); the complement is the unlabeled pool used for the attack loss
        and for evaluation.

    The degree vector is computed once, at construction, and kept up to
    date by ``flip_edge``; ``degrees()`` returns a copy.
    """

    adjacency: Array
    features: Array
    labels: Array
    labeled_mask: Array
    n_classes: int = field(default=0)

    def __post_init__(self) -> None:
        A = np.asarray(self.adjacency, dtype=np.float64)
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        m = np.asarray(self.labeled_mask, dtype=bool)

        n = A.shape[0]
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"adjacency must be square, got shape {A.shape}")
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"features must have {n} rows, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite (no NaN or inf)")
        if y.shape != (n,) or m.shape != (n,):
            raise ValueError("labels and labeled_mask must be 1-d of length n_nodes")
        if not np.array_equal(A, A.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diagonal(A) != 0.0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.all((A == 0.0) | (A == 1.0)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative class indices")
        k = self.n_classes if self.n_classes > 0 else int(y.max()) + 1 if n else 0
        if np.any(y >= k):
            raise ValueError(f"label index >= n_classes ({k})")
        if not (m.any() and (~m).any()):
            raise ValueError("labeled_mask needs at least one labeled and one unlabeled node")

        object.__setattr__(self, "adjacency", _frozen(A))
        object.__setattr__(self, "features", _frozen(X))
        object.__setattr__(self, "labels", _frozen(y))
        object.__setattr__(self, "labeled_mask", _frozen(m))
        object.__setattr__(self, "n_classes", k)
        object.__setattr__(self, "_degrees", _frozen(A.sum(axis=1)))

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._degrees.sum()) // 2

    @property
    def unlabeled_mask(self) -> Array:
        return ~self.labeled_mask

    def degrees(self) -> Array:
        return self._degrees.copy()


def build_graph(edges, features, labels, labeled_mask, n_classes: int = 0) -> Graph:
    """Build a Graph from an undirected edge list of ``(i, j)`` pairs.

    Each pair sets both ``A[i, j]`` and ``A[j, i]``; duplicates collapse.
    Node count comes from ``features``.

    Raises
    ------
    ValueError
        On out-of-range node indices, self-loop pairs, or labels outside
        ``{0 .. n_classes-1}``.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d (N, d) array")
    n = X.shape[0]
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        raise ValueError(f"self-loop {tuple(pairs[loops][0].tolist())} not allowed")
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        raise ValueError(f"edge {tuple(pairs[outside][0].tolist())} out of range for {n} nodes")
    A = np.zeros((n, n), dtype=np.float64)
    A[pairs[:, 0], pairs[:, 1]] = 1.0
    A[pairs[:, 1], pairs[:, 0]] = 1.0
    return Graph(A, X, labels, labeled_mask, n_classes)


def normalize_adjacency(adjacency) -> sp.csr_matrix:
    """D^{-1/2} (A + I) D^{-1/2} as a CSR matrix (as sparse as A + I).

    Degrees are row sums of A + I, so they are strictly positive for any
    nonnegative A and the normalization never divides by zero. Accepting
    non-binary input lets the finite-difference oracle evaluate the same
    map on relaxed adjacencies.
    """
    n = adjacency.shape[0]
    tilde = sp.csr_matrix(adjacency, dtype=np.float64) + sp.identity(n, format="csr")
    inv_sqrt = 1.0 / np.sqrt(np.asarray(tilde.sum(axis=1)).ravel())
    entries = tilde.tocoo()
    entries.data *= inv_sqrt[entries.row] * inv_sqrt[entries.col]
    return entries.tocsr()


def largest_component(adjacency) -> Array:
    """Sorted node ids of the largest connected component of an adjacency.

    Ties between equal-size components go to the one containing the
    smallest node id.
    """
    _, comp = connected_components(adjacency, directed=False)
    size_of = np.bincount(comp)[comp]  # per node: the size of its component
    return np.flatnonzero(comp == comp[np.argmax(size_of == size_of.max())])


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on :func:`largest_component`.

    Node indices are remapped densely, preserving relative order.
    """
    keep = largest_component(sp.csr_matrix(g.adjacency))
    return Graph(
        g.adjacency[np.ix_(keep, keep)],
        g.features[keep],
        g.labels[keep],
        g.labeled_mask[keep],
        g.n_classes,
    )


def flip_edge(g: Graph, i: int, j: int) -> Graph:
    """Toggle the undirected edge {i, j}; returns a new Graph.

    The new graph shares ``g``'s features, labels and mask and is not
    re-validated: toggling a mirrored off-diagonal pair of a valid
    adjacency keeps it symmetric, binary and zero-diagonal.
    """
    if i == j:
        raise ValueError("cannot flip a self-loop")
    if not (0 <= i < g.n_nodes and 0 <= j < g.n_nodes):
        raise ValueError(f"pair ({i}, {j}) out of range for {g.n_nodes} nodes")
    A = g.adjacency.copy()
    A[i, j] = A[j, i] = 1.0 - A[i, j]
    A.flags.writeable = False
    deg = g._degrees.copy()
    deg[[i, j]] += 1.0 if A[i, j] == 1.0 else -1.0
    deg.flags.writeable = False
    out = copy.copy(g)
    object.__setattr__(out, "adjacency", A)
    object.__setattr__(out, "_degrees", deg)
    return out


def count_flips(g: Graph, g2: Graph) -> int:
    """Number of undirected edge positions where two graphs differ."""
    if g.n_nodes != g2.n_nodes:
        raise ValueError("graphs must have the same node count")
    diff = g.adjacency != g2.adjacency
    return int(np.triu(diff, k=1).sum())
