import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoison import (
    AttackConfig,
    Graph,
    build_graph,
    count_flips,
    dice_attack,
    flip_edge,
    largest_connected_component,
    normalize_adjacency,
    sbm_graph,
)

from .conftest import tiny_graph
from .oracles import normalize_dense


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


def test_graph_arrays_are_immutable():
    g = tiny_graph()
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 1.0
    for a in _csr_arrays(g.csr):
        with pytest.raises(ValueError):
            a[0] = 0


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
    # component {0,1,2} (size 3) vs {3,4} (size 2)
    feats = _features(5)
    labels = [0, 1, 0, 1, 0]
    mask = np.array([True, False, True, False, False])
    g = build_graph([(0, 1), (1, 2), (3, 4)], feats, labels, mask)
    sub = largest_connected_component(g)
    assert sub.n_nodes == 3
    assert np.array_equal(sub.labels, [0, 1, 0])


def test_lcc_of_connected_graph_is_identity():
    g = build_graph([(0, 1), (1, 2)], _features(3), [0, 1, 0], _mask(3))
    sub = largest_connected_component(g)
    assert np.array_equal(sub.adjacency, g.adjacency)
    assert np.array_equal(sub.features, g.features)


def test_lcc_tie_breaks_to_smallest_index():
    # two components of size 2: {0, 3} and {1, 2}; winner holds node 0
    feats = _features(4)
    mask = np.array([True, False, True, False])
    g = build_graph([(0, 3), (1, 2)], feats, [0, 1, 1, 0], mask)
    sub = largest_connected_component(g)
    assert np.array_equal(sub.features, feats[[0, 3]])


def test_lcc_idempotent(small_sbm):
    once = largest_connected_component(small_sbm)
    twice = largest_connected_component(once)
    assert np.array_equal(once.adjacency, twice.adjacency)


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
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=15),
)
def test_flip_edge_keeps_a_valid_read_only_graph(seed, pairs):
    g = sbm_graph((15, 15), p_in=0.3, p_out=0.05, seed=seed)
    n = g.n_nodes  # sbm_graph keeps the largest component, so n may be below 30
    for i, j in pairs:
        i, j = i % n, j % n
        if i == j:
            continue
        before = g.adjacency.copy()
        out = flip_edge(g, i, j)
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
        g = out


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
    # a ring plus chords; sbm_graph would draw an N x N coin matrix
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
        assert largest_connected_component(flipped).n_nodes == n
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
