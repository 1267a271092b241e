import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpoison import (
    AttackConfig,
    Graph,
    build_graph,
    count_flips,
    dice_attack,
    flip_edge,
    normalize_adjacency,
    sbm_graph,
)
from graphpoison import graph
from graphpoison.graph import component_roots, largest_component

from .conftest import tiny_graph
from .oracles import component_roots_csgraph, flip_edge_by_sum, normalize_dense


def _features(n, d=2):
    return np.arange(n * d, dtype=float).reshape(n, d)


def _mask(n):
    m = np.zeros(n, dtype=bool)
    m[0] = True
    return m


def _csr_arrays(m):
    return (m.data, m.indices, m.indptr)


def _same_csr(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_csr_arrays(a), _csr_arrays(b)))


def test_build_single_edge_symmetry():
    g = build_graph([(0, 1)], _features(2), [0, 1], _mask(2))
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_build_empty_edge_list():
    g = build_graph([], _features(3), [0, 0, 1], _mask(3))
    assert not g.adjacency.any()


def test_build_duplicate_edges_collapse():
    g = build_graph([(0, 1), (1, 0)], _features(2), [0, 1], _mask(2))
    g2 = build_graph([(0, 1)], _features(2), [0, 1], _mask(2))
    assert np.array_equal(g.adjacency, g2.adjacency)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph([(1, 1)], _features(2), [0, 1], _mask(2))


def test_build_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 5)], _features(2), [0, 1], _mask(2))


def test_build_rejects_label_past_n_classes():
    with pytest.raises(ValueError, match="n_classes"):
        build_graph([(0, 1)], _features(2), [0, 3], _mask(2), n_classes=2)


@pytest.mark.parametrize("n_classes", [2.5, 3.0, -1, True, np.bool_(True), "3", None])
def test_graph_rejects_a_bool_non_integer_or_negative_n_classes(n_classes):
    with pytest.raises(ValueError, match="n_classes must be a nonnegative integer"):
        Graph(np.zeros((2, 2)), _features(2), [0, 1], _mask(2), n_classes=n_classes)


@pytest.mark.parametrize("n_classes, stored", [(0, 2), (3, 3), (np.int64(3), 3), (np.uint8(4), 4)])
def test_graph_stores_n_classes_as_a_python_int(n_classes, stored):
    g = Graph(np.zeros((2, 2)), _features(2), [0, 1], _mask(2), n_classes=n_classes)
    assert g.n_classes == stored and type(g.n_classes) is int


def test_graph_rejects_asymmetric_adjacency():
    a = np.zeros((2, 2))
    a[0, 1] = 1
    with pytest.raises(ValueError, match="symmetric"):
        Graph(a, _features(2), [0, 1], _mask(2))


def _coo(entries, shape=(3, 3), value=1.0):
    rows, cols = zip(*entries)
    return sp.coo_matrix((np.full(len(entries), value), (rows, cols)), shape=shape)


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize(
    "adjacency, message",
    [
        (_coo([(0, 1), (1, 0)], shape=(3, 4)), "square"),
        (_coo([(0, 1)]), "symmetric"),
        (_coo([(0, 1), (1, 0), (2, 2)]), "diagonal"),
        (_coo([(0, 1), (1, 0)], value=2.0), "0 or 1"),
        (_coo([(0, 1), (1, 0), (0, 1), (1, 0)]), "0 or 1"),  # a duplicated pair sums to 2
    ],
    ids=["non-square", "asymmetric", "diagonal", "entry-2", "duplicate-pair"],
)
def test_graph_rejects_invalid_adjacency(adjacency, message, form):
    a = adjacency.toarray() if form == "dense" else adjacency
    with pytest.raises(ValueError, match=message):
        Graph(a, _features(3), [0, 1, 1], _mask(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_rejects_non_finite_features(bad):
    feats = _features(2)
    feats[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Graph(np.zeros((2, 2)), feats, [0, 1], _mask(2))


def test_graph_requires_mixed_mask():
    with pytest.raises(ValueError, match="labeled"):
        Graph(np.zeros((2, 2)), _features(2), [0, 1], np.ones(2, dtype=bool))


@pytest.mark.parametrize("labels", [[0.7, 1.9, 0.2], [0.0, 1.0, 0.0], [True, False, False], ["0", "1", "0"]], ids=repr)
def test_graph_rejects_labels_of_a_non_integer_dtype(labels):
    # a cast would store [0.7, 1.9, 0.2] as classes [0, 1, 0]
    mask = [True, False, False]
    with pytest.raises(ValueError, match="labels must be of integer dtype"):
        build_graph([(0, 1), (1, 2)], np.eye(3), labels, mask)
    with pytest.raises(ValueError, match="labels must be of integer dtype"):
        Graph(np.zeros((3, 3)), np.eye(3), labels, mask)


@pytest.mark.parametrize("mask", [[0, 2, 1], [1, 0, 0], [1.0, 0.0, 0.0], np.array([1, 0, 0], dtype=np.uint8)], ids=repr)
def test_graph_rejects_a_labeled_mask_of_a_non_boolean_dtype(mask):
    # a cast would read [0, 2, 1] as [False, True, True]
    with pytest.raises(ValueError, match="labeled_mask must be of boolean dtype"):
        build_graph([(0, 1), (1, 2)], np.eye(3), [1, 0, 0], mask)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
def test_graph_stores_labels_of_any_integer_dtype_as_int64(dtype):
    labels = np.array([1, 0, 2], dtype=dtype)
    mask = np.array([True, False, False])
    g = build_graph([(0, 1), (1, 2)], np.eye(3), labels, mask)
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [1, 0, 2]
    assert g.labeled_mask.tolist() == [True, False, False]
    mask[1] = True  # the graph keeps its own copy
    assert not g.labeled_mask[1]


def test_graph_arrays_are_immutable():
    g = tiny_graph()
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 1.0
    for a in _csr_arrays(g.csr):
        with pytest.raises(ValueError):
            a[0] = 0


def test_graph_rejects_zero_width_features():
    # no surrogate or victim means anything without one feature column
    with pytest.raises(ValueError, match="features must have at least one column"):
        Graph(np.zeros((2, 2)), np.zeros((2, 0)), [0, 1], _mask(2))
    with pytest.raises(ValueError, match="features"):
        build_graph([(0, 1)], np.zeros((2, 0)), [0, 1], _mask(2))


def _bag_of_words(n=60, d=200, seed=0):
    return (np.random.default_rng(seed).random((n, d)) < 0.03).astype(float)


def _at_the_threshold(extra=0):
    """20 x 5 features with SPARSE_FEATURE_DENSITY of their entries nonzero, plus ``extra``."""
    X = np.zeros((20, 5))
    X.flat[: round(graph.SPARSE_FEATURE_DENSITY * X.size) + extra] = 2.0
    return X


def _with_zero_rows():
    X = _bag_of_words()
    X[[0, 7, -1]] = 0.0  # empty first and last rows test both ends of indptr
    return X


def _with_negative_zeros():
    X = _bag_of_words() * np.random.default_rng(1).choice([-1.5, 3.0], size=(60, 200))  # 0 * -1.5 = -0.0
    assert np.signbit(X[X == 0]).any()
    return X


FEATURES_WITH_A_CSR_FORM = {
    "bag_of_words": _bag_of_words,
    "identity": lambda: np.eye(40),
    "at_the_density_threshold": _at_the_threshold,
    "zero_rows": _with_zero_rows,
    "negative_zeros": _with_negative_zeros,
}
DENSE_FEATURES = {
    "above_the_density_threshold": lambda: _at_the_threshold(extra=1),
    "gaussian": lambda: np.random.default_rng(0).normal(size=(40, 8)),
}


def _graph_with(X):
    n = X.shape[0]
    return Graph(sp.csr_matrix((n, n)), X, np.arange(n) % 2, _mask(n))


@pytest.mark.parametrize("kind", sorted(FEATURES_WITH_A_CSR_FORM))
def test_sparse_features_equal_scipys_conversion_array_for_array(kind):
    X = FEATURES_WITH_A_CSR_FORM[kind]()
    got, want = _graph_with(X).sparse_features, sp.csr_matrix(X)
    assert got is not None and got.shape == want.shape
    for a, b in zip(_csr_arrays(got), _csr_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind", sorted(DENSE_FEATURES))
def test_dense_features_have_no_csr_form(kind):
    assert _graph_with(DENSE_FEATURES[kind]()).sparse_features is None


def test_sparse_features_are_read_only_and_shared_by_flipped_graphs():
    g = build_graph([(0, 1), (1, 2)], _bag_of_words(), np.arange(60) % 2, _mask(60))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.sparse_features = None
    for a in _csr_arrays(g.sparse_features):
        with pytest.raises(ValueError):
            a[0] = 0
    flipped = flip_edge(flip_edge(g, 0, 2), 3, 4)
    assert flipped.sparse_features is g.sparse_features


def test_normalize_isolated_node_is_identity():
    g = Graph(np.zeros((2, 2)), _features(2), [0, 1], _mask(2))
    ahat = normalize_adjacency(g.adjacency).toarray()
    assert np.allclose(ahat, np.eye(2))


def test_normalize_single_edge_hand_value():
    # degrees of A+I are (2, 2), so every entry is 1/sqrt(2*2)
    g = build_graph([(0, 1)], _features(2), [0, 1], _mask(2))
    ahat = normalize_adjacency(g.adjacency).toarray()
    assert np.allclose(ahat, [[0.5, 0.5], [0.5, 0.5]])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
def test_normalize_symmetry_and_bounds(seed, n):
    g = tiny_graph(n=n, seed=seed)
    ahat = normalize_adjacency(g.adjacency).toarray()
    assert np.abs(ahat - ahat.T).max() < 1e-12
    assert (ahat >= 0).all() and (ahat <= 1).all()
    filled = (g.adjacency + np.eye(n)) > 0
    assert (ahat[filled] > 0).all()
    assert not ahat[~filled].any()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
def test_normalize_matches_dense_formula(seed, n):
    g = tiny_graph(n=n, seed=seed)
    ahat = normalize_adjacency(g.adjacency)
    assert ahat.has_sorted_indices
    assert np.array_equal(ahat.toarray(), normalize_dense(g.adjacency))
    # relaxed, non-binary input (the finite-difference oracle's case)
    relaxed = g.adjacency * np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n))
    relaxed = (relaxed + relaxed.T) / 2.0
    assert np.allclose(normalize_adjacency(relaxed).toarray(), normalize_dense(relaxed), rtol=1e-14, atol=0)


def test_lcc_picks_larger_component():
    # component {2,3,4} (size 3) vs {0,1} (size 2); ids renumber to positions in keep
    keep, pairs = largest_component([(0, 1), (2, 4), (4, 3)], 5)
    assert keep.tolist() == [2, 3, 4]
    assert pairs.tolist() == [[0, 2], [2, 1]]


def test_lcc_of_connected_graph_is_identity():
    edges = [(0, 1), (2, 1), (1, 0)]
    keep, pairs = largest_component(edges, 3)
    assert keep.tolist() == [0, 1, 2]
    assert pairs.tolist() == [list(e) for e in edges] and pairs.dtype == np.int64


def test_lcc_tie_breaks_to_smallest_index():
    # two components of size 2: {0, 3} and {1, 2}; winner holds node 0
    keep, pairs = largest_component([(1, 2), (0, 3)], 4)
    assert keep.tolist() == [0, 3]
    assert pairs.tolist() == [[0, 1]]


def test_lcc_idempotent():
    whole = sbm_graph((20, 20), p_in=0.1, p_out=0.01, seed=1, connected=False)
    edges = np.transpose(sp.triu(whole.csr).nonzero())
    keep, once = largest_component(edges, whole.n_nodes)
    assert 1 < keep.size < whole.n_nodes
    again, twice = largest_component(once, keep.size)
    assert np.array_equal(again, np.arange(keep.size)) and np.array_equal(twice, once)


def _largest_component_by_bfs(pairs, n):
    """Sorted ids of the first largest component found by BFS from each unseen id in turn."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = True
    seen = np.zeros(n, dtype=bool)
    best = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            reached = np.flatnonzero(adj[frontier.pop()] & ~seen)
            seen[reached] = True
            comp += reached.tolist()
            frontier += reached.tolist()
        if len(comp) > len(best):  # strictly larger: a tie keeps the component found first
            best = comp
    return sorted(best)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 10),
    raw=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
)
@example(n=6, raw=[(0, 1), (1, 0), (0, 1)])  # duplicate and reversed pairs, isolated nodes
@example(n=6, raw=[(4, 5), (0, 3), (2, 1)])  # three components of equal size
@example(n=7, raw=[(6, 5), (5, 4), (1, 0), (2, 1)])  # equal size, the later pair listed first
@example(n=4, raw=[])  # no edge: every node is its own component
def test_largest_component_matches_bfs_on_a_dense_adjacency(n, raw):
    pairs = [(i % n, j % n) for i, j in raw if i % n != j % n]
    keep, sub = largest_component(pairs, n)
    want = _largest_component_by_bfs(pairs, n)
    assert keep.tolist() == want
    position = {v: k for k, v in enumerate(want)}
    assert sub.tolist() == [[position[i], position[j]] for i, j in pairs if i in position]


@st.composite
def _edge_lists(draw):
    """Edge lists over up to 40 ids: random pairs, repeated and reversed, isolated
    ids, and paths laid over shuffled ids (the longest hook chains)."""
    n = draw(st.integers(1, 40))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        pairs += list(zip(path, path[1:]))
    pairs = [(i, j) for i, j in pairs if i != j]
    pairs += [(j, i) for i, j in draw(st.lists(st.sampled_from(pairs), max_size=5))] if pairs else []
    return draw(st.permutations(pairs)), n


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
@example(([(1, 2), (0, 3)], 4))  # two components of size 2: the one holding 0 wins
@example(([(4, 5), (0, 3), (2, 1), (5, 4), (3, 0)], 7))  # three of size 2, repeated and reversed pairs, an isolated id
@example(([(k, k + 1) for k in range(39)][::-1], 40))  # a path listed from its far end
@example(([], 3))  # no edge: every id its own component
def test_component_roots_and_largest_component_match_csgraph(case):
    """Each node's root is its component's smallest id, as scipy's labeling gives;
    the largest component is the biggest root class, ties to the smallest root."""
    pairs, n = case
    roots = component_roots(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    want = component_roots_csgraph(pairs, n)
    assert np.array_equal(roots, want)
    sizes = np.bincount(want, minlength=n)
    keep, sub = largest_component(pairs, n)
    assert keep.tolist() == np.flatnonzero(want == np.flatnonzero(sizes == sizes.max())[0]).tolist()
    position = {v: k for k, v in enumerate(keep.tolist())}
    assert sub.tolist() == [[position[i], position[j]] for i, j in pairs if i in position]


def test_flip_edge_adds_and_removes():
    g = build_graph([], _features(3), [0, 1, 1], _mask(3))
    g2 = flip_edge(g, 0, 1)
    assert g2.adjacency[0, 1] == 1 and g2.adjacency[1, 0] == 1
    assert g.adjacency[0, 1] == 0  # input untouched
    g3 = flip_edge(g2, 0, 1)
    assert np.array_equal(g3.adjacency, g.adjacency)


def test_flip_edge_rejects_self_loop():
    g = tiny_graph()
    with pytest.raises(ValueError):
        flip_edge(g, 2, 2)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -2), (4, 1), (1, 4)])
def test_flip_edge_rejects_ids_outside_the_graph(i, j):
    g = tiny_graph(n=4)
    with pytest.raises(ValueError, match="out of range"):
        flip_edge(g, i, j)


# a bool is not a node id (True once flipped the pair {1, 2}), nor is a float, even a whole one
NOT_NODE_IDS = [True, np.bool_(True), 1.5, 1.0, "1"]


@pytest.mark.parametrize("bad", NOT_NODE_IDS, ids=repr)
@pytest.mark.parametrize("side", ["i", "j"])
def test_flip_edge_rejects_an_id_that_is_not_an_integer(bad, side):
    g = tiny_graph(n=4)
    pair = (bad, 2) if side == "i" else (2, bad)
    with pytest.raises(ValueError, match=f"node id {side} must be an integer"):
        flip_edge(g, *pair)


def test_flip_edge_accepts_numpy_integer_ids():
    g = tiny_graph(n=4)
    assert _same_csr(flip_edge(g, np.int64(0), np.int32(3)).csr, flip_edge(g, 0, 3).csr)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flip_is_involution(seed):
    rng = np.random.default_rng(seed)
    g = tiny_graph(n=8, seed=seed)
    i, j = rng.choice(8, size=2, replace=False)
    assert count_flips(g, flip_edge(flip_edge(g, i, j), i, j)) == 0
    assert count_flips(g, flip_edge(g, i, j)) == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    # -1 is the last node, N - 1
    pairs=st.lists(st.tuples(st.integers(-1, 29), st.integers(-1, 29)), max_size=15),
)
def test_flip_edge_keeps_a_valid_read_only_graph(seed, pairs):
    g = sbm_graph((15, 15), p_in=0.3, p_out=0.05, seed=seed)
    n = g.n_nodes  # sbm_graph keeps the largest component, so n may be below 30
    clean = g
    pairs = [(i % n, j % n) for i, j in pairs if i % n != j % n]
    for i, j in pairs:
        g = _checked_flip(g, i, j)
    # node 0 goes to degree 0 and back
    isolate = [(0, int(v)) for v in g.csr.indices[g.csr.indptr[0] : g.csr.indptr[1]]]
    for i, j in isolate:
        g = _checked_flip(g, i, j)
    assert g.degrees()[0] == 0
    for i, j in isolate[::-1] + pairs[::-1]:  # every flip flipped back
        g = _checked_flip(g, i, j)
    assert _same_csr(g.csr, clean.csr)


def _checked_flip(g, i, j):
    """``flip_edge(g, i, j)``, checked against the sparse-sum oracle and the constructor's rules."""
    n = g.n_nodes
    before = g.adjacency.copy()
    out = flip_edge(g, i, j)
    # the array edit gives the arrays, and their dtypes, of the sparse sum it replaced
    expected = flip_edge_by_sum(g, i, j).csr
    assert all(a.dtype == b.dtype for a, b in zip(_csr_arrays(out.csr), _csr_arrays(expected)))
    assert _same_csr(out.csr, expected)
    # rebuilding through the constructor re-runs every check flip_edge skips
    again = Graph(out.adjacency, out.features, out.labels, out.labeled_mask, out.n_classes)
    assert np.array_equal(again.adjacency, out.adjacency)
    assert not out.adjacency.flags.writeable
    assert np.array_equal(g.adjacency, before)
    assert count_flips(g, out) == 1 and out.adjacency[i, j] != g.adjacency[i, j]
    assert np.array_equal(out.degrees(), again.degrees()) and out.n_edges == again.n_edges
    # the stored CSR stays canonical and read-only, and either form rebuilds to it
    assert out.csr.has_canonical_format and np.all(out.csr.data == 1.0)
    assert not any(a.flags.writeable for a in _csr_arrays(out.csr))
    from_csr = Graph(out.csr, out.features, out.labels, out.labeled_mask, out.n_classes)
    assert _same_csr(from_csr.csr, out.csr) and _same_csr(again.csr, out.csr)
    # one row lookup per entry, and the upper triangle of the edge list, read from the arrays
    assert [[graph.has_edge(out, a, b) for b in range(n)] for a in range(n)] == (out.adjacency == 1.0).tolist()
    iu, ju = out.csr.nonzero()
    upper = iu < ju
    assert [a.tolist() for a in graph.upper_edges(out)] == [iu[upper].tolist(), ju[upper].tolist()]
    return out


def test_degrees_are_stored_and_returned_as_copies():
    g = tiny_graph(n=8, seed=3)
    deg = g.degrees()
    assert np.array_equal(deg, g.adjacency.sum(axis=1))
    deg[0] += 5.0
    assert np.array_equal(g.degrees(), g.adjacency.sum(axis=1))
    flipped = flip_edge(g, 0, 1)
    assert np.array_equal(flipped.degrees(), flipped.adjacency.sum(axis=1))
    assert np.array_equal(g.degrees(), g.adjacency.sum(axis=1))


def test_count_flips_counts_distinct_pairs():
    g = tiny_graph(n=8, seed=3)
    g2 = g
    pairs = [(0, 1), (2, 5), (3, 7)]
    for i, j in pairs:
        g2 = flip_edge(g2, i, j)
    assert count_flips(g, g2) == len(pairs)
    assert count_flips(g, g) == 0


def test_graph_operations_never_hold_a_dense_adjacency():
    # a ring plus chords from an edge list; sbm_graph's 256-row coin blocks alone would fill the bound
    n = 5_000
    ring = [(v, (v + 1) % n) for v in range(n)]
    chords = [(v, v + n // 2) for v in range(0, n // 2, 7)]
    labels = (np.arange(n) >= n // 2).astype(int)
    feats = np.eye(2)[labels] + 0.1 * np.random.default_rng(0).normal(size=(n, 2))
    mask = np.arange(n) % 10 == 0
    tracemalloc.start()
    try:
        g = build_graph(ring + chords, feats, labels, mask)
        flipped = flip_edge(g, 0, 2)
        assert count_flips(g, flipped) == 1
        assert largest_component(np.transpose(sp.triu(flipped.csr).nonzero()), n)[0].size == n
        normalize_adjacency(flipped.csr)
        assert flipped.degrees().sum() == 2 * flipped.n_edges
        assert len(dice_attack(g, AttackConfig(budget=3)).flips) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * n * n * 8


def test_count_flips_size_mismatch():
    with pytest.raises(ValueError):
        count_flips(tiny_graph(n=5), tiny_graph(n=6))
