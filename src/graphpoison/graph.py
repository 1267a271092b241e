"""Immutable graph values: construction, normalization, connectivity, flips.

``Graph`` stores its adjacency once, as a read-only canonical CSR matrix
(``Graph.csr``); the dense ``Graph.adjacency`` is a copy for outside readers.
A graph is validated once, at the boundary: ``Graph(...)``, ``build_graph``
(the one edge-list -> adjacency routine) and ``load_dataset`` check every
field. ``flip_edge`` then derives new values from a valid graph without
re-validating them; it is the only code that changes an adjacency entry.
``largest_component`` is the one connectivity routine, and
``normalize_adjacency`` builds the surrogate's propagation matrix
``Ahat = D^{-1/2} (A + I) D^{-1/2}`` in CSR form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

Array = np.ndarray


def _read_only(*arrays: Array) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, init=False)
class Graph:
    """An undirected, unweighted attributed graph with a labeled/unlabeled split.

    Attributes
    ----------
    csr : (N, N) CSR matrix
        The adjacency, canonical (sorted indices, no duplicates, no explicit
        zeros, every stored value 1.0), symmetric, zero diagonal.
    features : (N, d) float array
        Node feature matrix; every entry finite.
    labels : (N,) int array
        Class index per node, in ``{0 .. n_classes-1}``.
    labeled_mask : (N,) bool array
        True for nodes whose label is visible to the attacker (the training
        set); the complement is the unlabeled pool used for the attack loss
        and for evaluation.

    Every array, the three of ``csr`` included, is a read-only copy. The
    constructor accepts a dense or scipy-sparse adjacency; ``adjacency`` is a
    dense copy of ``csr``, O(N^2) per access, for readers outside the library.
    """

    csr: sp.csr_matrix
    features: Array
    labels: Array
    labeled_mask: Array
    n_classes: int

    def __init__(self, adjacency, features, labels, labeled_mask, n_classes: int = 0) -> None:
        shape = np.shape(adjacency)
        X = np.array(features, dtype=np.float64, order="C")
        y = np.array(labels, dtype=np.int64)
        m = np.array(labeled_mask, dtype=bool)

        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"adjacency must be square, got shape {shape}")
        n = shape[0]
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"features must have {n} rows, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite (no NaN or inf)")
        if y.shape != (n,) or m.shape != (n,):
            raise ValueError("labels and labeled_mask must be 1-d of length n_nodes")
        A = sp.csr_matrix(adjacency, dtype=np.float64, copy=True)
        A.sum_duplicates()
        A.eliminate_zeros()
        if (A != A.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if A.diagonal().any():
            raise ValueError("adjacency diagonal must be zero")
        if np.any(A.data != 1.0):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative class indices")
        k = n_classes if n_classes > 0 else int(y.max()) + 1 if n else 0
        if np.any(y >= k):
            raise ValueError(f"label index >= n_classes ({k})")
        if not (m.any() and (~m).any()):
            raise ValueError("labeled_mask needs at least one labeled and one unlabeled node")

        _read_only(A.data, A.indices, A.indptr, X, y, m)
        for name, value in zip(("csr", "features", "labels", "labeled_mask", "n_classes"), (A, X, y, m, k)):
            object.__setattr__(self, name, value)

    @property
    def adjacency(self) -> Array:
        out = self.csr.toarray()
        _read_only(out)
        return out

    @property
    def n_nodes(self) -> int:
        return self.csr.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.csr.nnz // 2

    @property
    def unlabeled_mask(self) -> Array:
        return ~self.labeled_mask

    def degrees(self) -> Array:
        return np.diff(self.csr.indptr).astype(np.float64)


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
    rows, cols = np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0).T
    A = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
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
    keep = largest_component(g.csr)
    return Graph(
        g.csr[keep][:, keep],
        g.features[keep],
        g.labels[keep],
        g.labeled_mask[keep],
        g.n_classes,
    )


def flip_edge(g: Graph, i: int, j: int) -> Graph:
    """Toggle the undirected edge {i, j}; returns a new Graph.

    Adds a two-entry +-1 CSR to ``g.csr`` (O(nnz)) and drops the zero it
    leaves on a deletion. The new graph shares ``g``'s features, labels and
    mask and is not re-validated: toggling a mirrored off-diagonal pair of a
    canonical adjacency keeps it canonical, symmetric and zero-diagonal.
    """
    if i == j:
        raise ValueError("cannot flip a self-loop")
    if not (0 <= i < g.n_nodes and 0 <= j < g.n_nodes):
        raise ValueError(f"pair ({i}, {j}) out of range for {g.n_nodes} nodes")
    step = 1.0 - 2.0 * g.csr[i, j]
    A = g.csr + sp.csr_matrix(([step, step], ([i, j], [j, i])), shape=g.csr.shape)
    A.eliminate_zeros()
    _read_only(A.data, A.indices, A.indptr)
    out = copy.copy(g)
    object.__setattr__(out, "csr", A)
    return out


def count_flips(g: Graph, g2: Graph) -> int:
    """Number of undirected edge positions where two graphs differ."""
    if g.n_nodes != g2.n_nodes:
        raise ValueError("graphs must have the same node count")
    return (g.csr != g2.csr).nnz // 2
