"""Immutable graph values: construction, normalization, connectivity, flips.

``Graph`` stores its adjacency once, as a read-only canonical CSR matrix
(``Graph.csr``); the dense ``Graph.adjacency`` is a copy for outside readers.
A graph is validated once, at the boundary: ``Graph(...)``, ``build_graph``
(the one edge-list -> adjacency routine, serving both ``load_dataset`` and
``sbm_graph``) and ``load_dataset`` check every field. ``flip_edge`` then
derives new values from a valid graph without re-validating them; it is
the only code that changes an adjacency entry, and it copies the CSR
arrays with the two entries inserted or deleted; ``has_edge`` and
``upper_edges`` read an entry and the edge list from the same arrays.
Sparse features get their CSR form once, in ``Graph(...)``, and every
graph derived by ``flip_edge`` shares it.
``largest_component``, the one LCC routine, restricts an edge list before any
Graph exists, and ``normalize_adjacency`` builds the surrogate's propagation
matrix ``Ahat = D^{-1/2} (A + I) D^{-1/2}`` in CSR form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

Array = np.ndarray

# Features with at most this share of nonzero entries also get a CSR form,
# ``Graph.sparse_features``: bag-of-words (~1%) and identity (1/N) features,
# not dense embeddings.
SPARSE_FEATURE_DENSITY = 0.1


def _read_only(*arrays: Array) -> None:
    for a in arrays:
        a.flags.writeable = False


def _sparse_form(X: Array) -> sp.csr_matrix | None:
    """Read-only ``sp.csr_matrix(X)`` if at most ``SPARSE_FEATURE_DENSITY`` of ``X`` is nonzero, else None.

    One ``X != 0`` pass: its flat nonzero positions, in row-major order, are
    the CSR entries, and each row's start is a search in them. ``-0.0`` is
    zero here, as in ``sp.csr_matrix``.
    """
    nonzero = X != 0
    if np.count_nonzero(nonzero) > SPARSE_FEATURE_DENSITY * X.size:
        return None
    n, d = X.shape
    flat = np.flatnonzero(nonzero)
    indptr = np.searchsorted(flat, np.arange(n + 1) * d)
    out = sp.csr_matrix((X.ravel()[flat], flat % d, indptr), shape=X.shape)
    _read_only(out.data, out.indices, out.indptr)
    return out


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """An undirected, unweighted attributed graph with a labeled/unlabeled split.

    Attributes
    ----------
    csr : (N, N) CSR matrix
        The adjacency, canonical (sorted indices, no duplicates, no explicit
        zeros, every stored value 1.0), symmetric, zero diagonal.
    features : (N, d) float array
        Node feature matrix, d >= 1; every entry finite.
    sparse_features : (N, d) CSR matrix or None
        ``features`` as CSR, array for array ``sp.csr_matrix(features)``,
        when at most ``SPARSE_FEATURE_DENSITY`` of its entries are nonzero;
        None otherwise. Derived once here and shared by every graph
        ``flip_edge`` derives; every feature product reads it (``models.feature_operand``).
    labels : (N,) int array
        Class index per node, in ``{0 .. n_classes-1}``; given as any integer
        dtype (never cast from floats or bools).
    labeled_mask : (N,) bool array
        True for nodes whose label is visible to the attacker (the training
        set); the complement is the unlabeled pool used for the attack loss
        and for evaluation. Given as a boolean array (never cast from numbers).

    Every array, the three of ``csr`` and of ``sparse_features`` included,
    is a read-only copy. The constructor accepts a dense or scipy-sparse
    adjacency; ``adjacency`` is a dense copy of ``csr``, O(N^2) per access,
    for readers outside the library. Graphs compare by identity, so each one
    keys its own Ahat (``models.propagation``).
    """

    csr: sp.csr_matrix
    features: Array
    sparse_features: sp.csr_matrix | None
    labels: Array
    labeled_mask: Array
    n_classes: int

    def __init__(self, adjacency, features, labels, labeled_mask, n_classes: int = 0) -> None:
        shape = np.shape(adjacency)
        X = np.array(features, dtype=np.float64, order="C")
        y, m = np.asarray(labels), np.asarray(labeled_mask)
        if y.dtype.kind not in "iu":  # a cast would truncate 1.9 to class 1
            raise ValueError(f"labels must be of integer dtype, got {y.dtype}")
        if m.dtype != bool:  # a cast would read 2 as True
            raise ValueError(f"labeled_mask must be of boolean dtype, got {m.dtype}")
        y, m = np.array(y, dtype=np.int64), m.copy()

        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"adjacency must be square, got shape {shape}")
        n = shape[0]
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"features must have {n} rows, got shape {X.shape}")
        if X.shape[1] == 0:
            raise ValueError(f"features must have at least one column, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite (no NaN or inf)")
        X_sp = _sparse_form(X)
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
        if isinstance(n_classes, bool) or not isinstance(n_classes, (int, np.integer)) or n_classes < 0:
            raise ValueError(f"n_classes must be a nonnegative integer (0 infers it), got {n_classes!r}")
        k = int(n_classes) or (int(y.max()) + 1 if n else 0)
        if np.any(y >= k):
            raise ValueError(f"label index >= n_classes ({k})")
        if not (m.any() and (~m).any()):
            raise ValueError("labeled_mask needs at least one labeled and one unlabeled node")

        _read_only(A.data, A.indices, A.indptr, X, y, m)
        names = ("csr", "features", "sparse_features", "labels", "labeled_mask", "n_classes")
        for name, value in zip(names, (A, X, X_sp, y, m, k)):
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
    keys = np.unique(np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]]))
    rows, cols = keys // n, keys % n  # the unique pairs, in row-major order
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


def component_roots(pairs: Array, n: int) -> Array:
    """Per node of an ``n``-node edge list ``pairs`` (an E x 2 int array), the smallest id in its component.

    Min-label hooking with pointer jumping: each round every root hooks onto
    the smallest root across its edges, if smaller, then every node jumps to
    its root. Roots only hook onto smaller ids, so the result is each
    component's smallest id; while a component is split, the larger root of an
    edge between two of its trees hooks, so a round merges at least two trees
    (at most n - 1 rounds, no O(log n) bound is claimed). Measured: 2-3 rounds
    on the SBM graphs of the benchmark (N 2,000-5,040), 9-10 on a path of
    20,000 shuffled ids.
    """
    root = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def largest_component(pairs, n: int) -> tuple[Array, Array]:
    """The largest connected component of an ``n``-node edge list: ``(keep, pairs)``.

    ``keep`` holds the component's node ids, sorted; the returned pairs are
    the input pairs inside it, in input order, each id renumbered to its
    position in ``keep``. Pairs may repeat or come in either orientation.
    Ties between equal-size components go to the one holding the smallest id.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    root = component_roots(pairs, n)
    inside = root == np.argmax(np.bincount(root, minlength=n))  # a tie goes to the smallest root, the smallest id
    new_id = np.cumsum(inside) - 1
    return np.flatnonzero(inside), new_id[pairs[inside[pairs].all(axis=1)]]


def _check_pair(g: Graph, i, j) -> tuple[int, int]:
    """``(i, j)`` as ints; ValueError unless they are two distinct integer ids of ``g`` (no bool, no float)."""
    from .models import check_type  # models imports this module

    i, j = check_type("node id i", i, int), check_type("node id j", j, int)
    if i == j:
        raise ValueError("cannot flip a self-loop")
    if not (0 <= i < g.n_nodes and 0 <= j < g.n_nodes):
        raise ValueError(f"pair ({i}, {j}) out of range for {g.n_nodes} nodes")
    return i, j


def _position(csr: sp.csr_matrix, i: int, j: int) -> int:
    """Where column ``j`` sits, or would be inserted, among row ``i``'s sorted indices of ``csr``."""
    lo, hi = csr.indptr[i], csr.indptr[i + 1]
    return int(lo + np.searchsorted(csr.indices[lo:hi], j))


def has_edge(g: Graph, i: int, j: int) -> bool:
    """Whether ``{i, j}`` is an edge of ``g`` (``i``, ``j`` node ids of ``g``): one binary search in row i."""
    k = _position(g.csr, i, j)
    return bool(k < g.csr.indptr[i + 1] and g.csr.indices[k] == j)


def upper_edges(g: Graph) -> tuple[Array, Array]:
    """The edges ``i < j`` of ``g`` as two id arrays, in row-major order, read from the CSR arrays."""
    indptr, indices = g.csr.indptr, g.csr.indices
    rows = np.repeat(np.arange(g.n_nodes, dtype=indices.dtype), np.diff(indptr))
    upper = rows < indices
    return rows[upper], indices[upper]


def flip_edge(g: Graph, i: int, j: int) -> Graph:
    """Toggle the undirected edge {i, j}; returns a new Graph.

    Edits the CSR arrays of ``g.csr``: a binary search in rows i and j
    finds the two entries, which are deleted or inserted, and ``indptr``
    shifts by one after each of the two rows. The new arrays are one
    O(nnz) copy; no sparse sum is formed. The new graph shares ``g``'s
    features, their CSR form, labels and mask and is not re-validated:
    toggling a mirrored off-diagonal pair of a canonical adjacency keeps it
    canonical, symmetric and zero-diagonal.
    """
    i, j = sorted(_check_pair(g, i, j))  # row i's entry comes first in the arrays
    A = g.csr
    at = [_position(A, i, j), _position(A, j, i)]
    present = has_edge(g, i, j)
    indices = np.delete(A.indices, at) if present else np.insert(A.indices, at, [j, i])
    step = -1 if present else 1
    indptr = A.indptr.copy()
    indptr[i + 1 :] += step
    indptr[j + 1 :] += step
    out_csr = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=A.shape)
    _read_only(out_csr.data, out_csr.indices, out_csr.indptr)
    out = copy.copy(g)
    object.__setattr__(out, "csr", out_csr)
    return out


def count_flips(g: Graph, g2: Graph) -> int:
    """Number of undirected edge positions where two graphs differ."""
    if g.n_nodes != g2.n_nodes:
        raise ValueError("graphs must have the same node count")
    return (g.csr != g2.csr).nnz // 2
