import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphpoison import Graph, sbm_graph
from graphpoison.graph import largest_component
from graphpoison.synthetic import _COIN_ROWS

from .conftest import spy_graph_builds
from .oracles import sbm_graph_dense

EMPTY_SIDE = "labeled_mask needs at least one labeled and one unlabeled node"

# (block_sizes, p_in, p_out, labeled_fraction): N below, at and just above
# one coin block, several coin blocks, a single class, no edges across
# classes, and a sparse graph whose largest component often keeps only one
# side of the mask the whole graph drew (6 of the 50 seeds)
SHAPES = [
    ((100, 100), 0.05, 0.01, 0.1),
    ((_COIN_ROWS // 2, _COIN_ROWS // 2), 0.05, 0.01, 0.1),
    ((_COIN_ROWS // 2 + 1, _COIN_ROWS // 2), 0.05, 0.01, 0.1),
    ((250, 250, 150), 0.02, 0.002, 0.1),
    ((200,), 0.02, 0.0, 0.1),
    ((60, 60), 0.1, 0.0, 0.1),
    ((30, 30), 0.05, 0.01, 0.05),
]


def _assert_same_graph(got: Graph, want: Graph) -> None:
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.csr, name), getattr(want.csr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("features", "labels", "labeled_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.n_classes == want.n_classes


def _assert_valid_split(g: Graph) -> None:
    assert g.labeled_mask.any() and g.unlabeled_mask.any()
    for c in np.unique(g.labels):  # the split stays stratified over the classes present
        assert g.labeled_mask[g.labels == c].any()


@pytest.mark.parametrize("connected", [True, False])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{sum(s[0])}-nodes-{len(s[0])}-classes-p_out-{s[2]}")
def test_sbm_graph_matches_the_dense_oracle(shape, connected):
    sizes, p_in, p_out, fraction = shape
    for seed in range(50):
        got = sbm_graph(sizes, p_in, p_out, labeled_fraction=fraction, seed=seed, connected=connected)
        try:
            want = sbm_graph_dense(sizes, p_in, p_out, labeled_fraction=fraction, seed=seed, connected=connected)
        except ValueError as e:  # the largest component kept one side of the mask
            assert connected and str(e) == EMPTY_SIDE, seed
            _assert_valid_split(got)
            continue
        _assert_same_graph(got, want)


def test_sbm_graph_redraws_a_mask_the_largest_component_cut_to_one_side():
    args = ((15, 15), 0.3, 0.05)
    with pytest.raises(ValueError, match=EMPTY_SIDE):
        sbm_graph_dense(*args, seed=1146)
    g = sbm_graph(*args, seed=1146)
    _assert_valid_split(g)
    # the same coins and features as the whole graph, restricted to its largest component
    whole = sbm_graph(*args, seed=1146, connected=False)
    keep, pairs = largest_component(np.transpose(sp.triu(whole.csr).nonzero()), whole.n_nodes)
    assert keep.size == g.n_nodes < whole.n_nodes and len(pairs) == g.n_edges
    assert np.array_equal(g.features, whole.features[keep]) and np.array_equal(g.labels, whole.labels[keep])
    assert (g.csr != whole.csr[keep][:, keep]).nnz == 0
    assert not whole.labeled_mask[keep].any()  # the first draw labeled no node of the component


@pytest.mark.parametrize("connected, components", [(True, 1), (False, 0)])
@pytest.mark.parametrize("seed", [0, 1146])  # seed 1146 redraws the mask (see above)
def test_sbm_graph_builds_one_graph_after_one_components_pass(monkeypatch, connected, components, seed):
    calls = spy_graph_builds(monkeypatch)
    sbm_graph((15, 15), 0.3, 0.05, seed=seed, connected=connected)
    assert (calls["Graph"], calls["component_roots"]) == (1, components)


BAD_ARGUMENTS = [
    ({"block_sizes": ()}, "block_sizes must be a nonempty list of positive integers"),
    ({"block_sizes": (10, 0)}, "block_sizes must be a nonempty list of positive integers"),
    ({"block_sizes": (10, -3)}, "block_sizes must be a nonempty list of positive integers"),
    ({"block_sizes": (10, 2.5)}, "block_sizes must be an integer"),
    ({"block_sizes": 20}, "block_sizes must be a list of integers"),
    ({"p_in": 1.5}, r"p_in must be in \[0, 1\]"),
    ({"p_in": -0.2}, r"p_in must be in \[0, 1\]"),
    ({"p_in": float("nan")}, "p_in must be finite"),
    ({"p_out": 2}, r"p_out must be in \[0, 1\]"),
    ({"p_out": True}, "p_out must be a number"),
    ({"labeled_fraction": -1}, r"labeled_fraction must be in \[0, 1\]"),
    ({"labeled_fraction": 1.5}, r"labeled_fraction must be in \[0, 1\]"),
    ({"feature_noise": -0.1}, "feature_noise must be nonnegative"),
    ({"feature_noise": float("inf")}, "feature_noise must be finite"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": np.bool_(False)}, "seed must be an integer"),
    ({"seed": 1.0}, "seed must be an integer"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"connected": 1}, "connected must be a bool"),
]


@pytest.mark.parametrize("bad, message", BAD_ARGUMENTS, ids=[repr(bad) for bad, _ in BAD_ARGUMENTS])
def test_sbm_graph_rejects_a_bad_argument_by_name(bad, message):
    with pytest.raises(ValueError, match=message):
        sbm_graph(**{"block_sizes": (10, 10), "p_in": 0.3, "p_out": 0.05, **bad})


def test_sbm_graph_accepts_the_ends_of_each_range_and_numpy_scalars():
    kwargs = dict(p_out=np.float64(0.0), feature_noise=0, seed=np.int64(3))
    full = sbm_graph([np.int64(10), 10], p_in=1.0, labeled_fraction=1.0, **kwargs)
    assert full.n_nodes == 10 and full.unlabeled_mask.sum() == 1  # one clique; all labeled but the last
    unlabeled = sbm_graph((10, 10), p_in=0.5, labeled_fraction=0.0, connected=False, **kwargs)
    assert unlabeled.labeled_mask.sum() == 2  # one node per class
    assert sbm_graph((4,), p_in=0.0, connected=False).n_edges == 0


def test_sbm_graph_leaves_a_node_unlabeled_where_each_class_has_one():
    # the largest component of this sparse shape sometimes holds one node
    # per class, where the stratified redraw would label all of them
    args = ((5, 5, 5), 0.1, 0.05)
    one_per_class = 0
    for seed in range(50):
        g = sbm_graph(*args, seed=seed)
        assert g.labeled_mask.any() and g.unlabeled_mask.any(), seed
        if np.bincount(g.labels).max() == 1:
            one_per_class += 1
            assert np.flatnonzero(g.unlabeled_mask).tolist() == [g.n_nodes - 1], seed
        try:
            want = sbm_graph_dense(*args, seed=seed)
        except ValueError as e:  # the largest component kept one side of the mask
            assert str(e) == EMPTY_SIDE, seed
            continue
        _assert_same_graph(g, want)
    assert one_per_class == 5


def test_sbm_graph_that_draws_no_edge_says_so():
    # the largest component of an edgeless draw is one node, which no mask
    # redraw can split; every other seed of the shape still builds
    args = ((3, 3), 0.2, 0.1)
    with pytest.raises(ValueError, match="largest component is a single node"):
        sbm_graph(*args, seed=10)
    assert sbm_graph(*args, seed=10, connected=False).n_edges == 0
    edgeless = 0
    for seed in range(200):
        if sbm_graph(*args, seed=seed, connected=False).n_edges == 0:
            edgeless += 1
            with pytest.raises(ValueError, match="single node"):
                sbm_graph(*args, seed=seed)
        else:
            g = sbm_graph(*args, seed=seed)
            assert g.labeled_mask.any() and g.unlabeled_mask.any()
    assert edgeless == 17


def test_sbm_graph_memory_grows_with_n_not_n_squared():
    # meta-large's input: N = 5040, whose N x N coins alone take 194 MiB
    tracemalloc.start()
    try:
        g = sbm_graph((720,) * 7, 0.0045, 0.00019, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_nodes > 4_000
    assert peak <= 64 * 2**20
