import dataclasses
import gc
import tracemalloc
import typing
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpoison import (
    AttackConfig,
    AttackConstraints,
    CAWeightParams,
    ExperimentConfig,
    Graph,
    LossSpec,
    SurrogateHyper,
    SurrogateParams,
    VictimHyper,
    build_graph,
    flip_edge,
    forward_logits,
    load_dataset,
    margin_gradient_scatter,
    margins,
    meta_attack,
    normalize_adjacency,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
    train_victim,
)
from graphpoison import graph, models
from graphpoison.gradients import attack_factors
from .conftest import tiny_graph, write_plain_dataset
from .oracles import log_softmax_rowwise, surrogate_nll, train_surrogate_primal, train_victim_full


def _toy_separable():
    """Three disconnected nodes, one-hot features, two labeled with distinct classes."""
    feats = np.eye(3)
    labels = np.array([0, 1, 0])
    mask = np.array([True, True, False])
    return build_graph([], feats, labels, mask, n_classes=2)


def test_forward_logits_zero_weight():
    g = tiny_graph()
    params = SurrogateParams(np.zeros((4, 3)))
    z = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    assert not z.any()


def test_forward_logits_hand_product():
    g = Graph(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], [True, False])
    params = SurrogateParams(np.array([[2.0, 0.0], [0.0, 3.0]]))
    z = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    assert np.allclose(z[0], [2.0, 0.0])


def test_forward_logits_permutation_equivariance():
    g = tiny_graph(n=7, seed=2)
    rng = np.random.default_rng(0)
    params = SurrogateParams(rng.normal(size=(4, 3)))
    z = forward_logits(params, normalize_adjacency(g.adjacency), g.features)

    perm = rng.permutation(7)
    gp = Graph(
        g.adjacency[np.ix_(perm, perm)],
        g.features[perm],
        g.labels[perm],
        g.labeled_mask[perm],
        g.n_classes,
    )
    zp = forward_logits(params, normalize_adjacency(gp.adjacency), gp.features)
    assert np.allclose(zp, z[perm])


def test_forward_logits_linear_in_weights():
    g = tiny_graph(n=6, seed=4)
    rng = np.random.default_rng(1)
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    ahat = normalize_adjacency(g.adjacency)
    combo = forward_logits(SurrogateParams(2.0 * w1 + 0.5 * w2), ahat, g.features)
    parts = 2.0 * forward_logits(SurrogateParams(w1), ahat, g.features) + 0.5 * forward_logits(
        SurrogateParams(w2), ahat, g.features
    )
    assert np.allclose(combo, parts)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 20),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda p: p[0] != p[1]), max_size=8),
    undo=st.booleans(),
)
def test_propagation_is_each_derived_graph_s_own_normalized_adjacency(seed, pairs, undo):
    # pairs draw deletions and additions alike; undo flips them back to the clean state
    g = sbm_graph((6, 6), 0.5, 0.1, seed=seed, connected=False)
    graphs = [g]
    for i, j in pairs + (pairs[::-1] if undo else []):
        graphs.append(flip_edge(graphs[-1], i, j))
    for h in graphs:
        ahat, want = models.propagation(h), normalize_adjacency(h.csr)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ahat, name), getattr(want, name))
            assert not getattr(ahat, name).flags.writeable
        assert models.propagation(h) is ahat
    assert len({id(models.propagation(h)) for h in graphs}) == len(graphs)  # none inherits its parent's


def test_propagation_is_released_with_its_graph():
    g = tiny_graph()
    ahat = weakref.ref(models.propagation(g))
    assert g == g and g != flip_edge(g, 0, 1)  # graphs compare by identity
    del g
    gc.collect()
    assert ahat() is None


def test_train_surrogate_separable_reaches_full_accuracy():
    g = _toy_separable()
    params = train_surrogate(g, SurrogateHyper(lr=0.5, epochs=200))
    z = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    labeled = g.labeled_mask
    assert (z[labeled].argmax(axis=1) == g.labels[labeled]).all()


def test_train_surrogate_zero_epochs_is_init():
    g = _toy_separable()
    p0 = train_surrogate(g, SurrogateHyper(epochs=0, seed=9))
    p1 = train_surrogate(g, SurrogateHyper(epochs=0, seed=9))
    assert np.array_equal(p0.weight, p1.weight)
    rng = np.random.default_rng(9)
    expected = rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=(3, 2))
    assert np.array_equal(p0.weight, expected)


def _design_case(kind: str) -> Graph:
    """A graph whose labeled design Ahat[lab] Ahat X has the named shape."""
    g = sbm_graph((20, 20, 20), 0.2, 0.02, labeled_fraction=0.3, seed=5)
    n, n_lab = g.n_nodes, int(g.labeled_mask.sum())
    rng = np.random.default_rng(11)
    if kind == "bag_of_words":  # d > L, about 5% nonzero
        feats = (rng.random((n, 120)) < 0.05).astype(np.float64)
        assert feats.shape[1] > n_lab
    elif kind == "gaussian":  # d < L
        feats = rng.normal(size=(n, 4))
        assert feats.shape[1] < n_lab
    elif kind in ("square", "one_wider"):  # d = L, the widest primal fit; d = L + 1, the narrowest dual one
        feats = rng.normal(size=(n, n_lab + (kind == "one_wider")))
    elif kind == "identity":  # d = N
        feats = np.eye(n)
    else:  # labeled twins 0 and 1: adjacent, same other neighbours
        A = g.csr.toarray()
        A[1] = A[0]
        A[:, 1] = A[:, 0]
        A[0, 1] = A[1, 0] = 1.0
        A[0, 0] = A[1, 1] = 0.0
        mask = g.labeled_mask.copy()
        mask[:2] = True
        labels = g.labels.copy()
        labels[1] = labels[0]
        feats = rng.normal(size=(n, 60))
        g = Graph(A, feats, labels, mask, g.n_classes)
        ahat = normalize_adjacency(g.csr)
        design = (ahat[mask] @ ahat) @ feats
        assert np.array_equal(design[0], design[1])
        assert np.linalg.matrix_rank(design) < min(design.shape)
        return g
    return Graph(g.csr, feats, g.labels, g.labeled_mask, g.n_classes)


@pytest.mark.parametrize("epochs", [0, 1, 50])
@pytest.mark.parametrize("kind", ["bag_of_words", "gaussian", "square", "one_wider", "identity", "rank_deficient"])
def test_train_surrogate_matches_primal_gradient_descent(kind, epochs):
    g = _design_case(kind)
    hyper = SurrogateHyper(lr=0.2, epochs=epochs, weight_decay=0.01, seed=3)
    got = train_surrogate(g, hyper).weight
    want = train_surrogate_primal(g, hyper).weight
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    if epochs == 0:  # the seeded initialization itself
        assert np.array_equal(got, want)


def test_train_surrogate_loss_nonincreasing(small_sbm):
    losses = [
        surrogate_nll(train_surrogate(small_sbm, SurrogateHyper(lr=0.05, epochs=k)), small_sbm)
        for k in range(0, 31, 5)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    wide=st.booleans(),
    pairs=st.lists(st.tuples(st.integers(0, 89), st.integers(0, 89)), min_size=1, max_size=6),
)
def test_a_refit_returns_its_prior_exactly_when_the_labeled_design_is_unchanged(seed, wide, pairs):
    g = sbm_graph((30, 30, 30), 0.07, 0.004, seed=seed)
    if wide:  # d > L: the dual fit, on CSR features
        g = Graph(g.csr, np.eye(g.n_nodes), g.labels, g.labeled_mask, g.n_classes)
    hyper = SurrogateHyper(epochs=10)
    n, prior = g.n_nodes, train_surrogate(g, hyper)
    for i, j in pairs:
        if i % n == j % n:
            continue
        h = flip_edge(g, i % n, j % n)
        out = train_surrogate(h, hyper, prior)
        assert out.weight.tobytes() == train_surrogate(h, hyper).weight.tobytes()
        unchanged = models._labeled_design(h).tobytes() == models._labeled_design(g).tobytes()
        assert (out is prior) == unchanged
        # another seed, other labels or another class count never reuse
        assert train_surrogate(h, dataclasses.replace(hyper, seed=1), prior) is not prior
        labels = h.labels.copy()
        first = np.flatnonzero(h.labeled_mask)[0]
        labels[first] = (labels[first] + 1) % 3
        assert train_surrogate(Graph(h.csr, h.features, labels, h.labeled_mask, 3), hyper, prior) is not prior
        assert train_surrogate(Graph(h.csr, h.features, h.labels, h.labeled_mask, 4), hyper, prior) is not prior
        g, prior = h, out


@pytest.mark.parametrize("k", [2, 7, 8, 9, 40])
def test_log_softmax_matches_the_row_wise_max_bit_for_bit(k):
    rng = np.random.default_rng(k)
    z = rng.normal(scale=30.0, size=(500, k))
    z[:100] = rng.integers(-2, 3, size=(100, k)) / 3.0  # tied maxima
    z[100:150] = np.where(rng.random((50, k)) < 0.5, 0.0, -0.0)  # signed-zero ties
    huge = rng.random((100, k)) < 0.3
    z[150:250][huge] = np.where(rng.random(huge.sum()) < 0.5, 1e300, -1e300)
    z[250, :] = 1e300
    z[251, :] = -1e300
    z[252, 0], z[252, 1:] = -1e300, 1e300
    got = models.log_softmax(z)
    assert np.isfinite(got).all()
    assert got.tobytes() == log_softmax_rowwise(z).tobytes()
    assert models.log_softmax(z[:, ::-1]).tobytes() == log_softmax_rowwise(z[:, ::-1]).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 300), st.integers(1, 12)),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e150, 1e300]),
    ties=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_major_softmax_is_the_row_wise_one_bit_for_bit(shape, scale, ties, seed):
    """Any row count and 1 to 12 classes (both sides of numpy's 8-entry unrolled
    sum), scales up to 1e300, tied and signed-zero entries: ``log_softmax`` and
    ``softmax`` give the row-wise formula's bytes, C-contiguous."""
    rng = np.random.default_rng(seed)
    z = scale * rng.normal(size=shape)
    tied = rng.random(shape) < ties
    z[tied] = np.where(rng.random(tied.sum()) < 0.5, 0.0, -0.0)
    want = log_softmax_rowwise(z)
    for got, expected in ((models.log_softmax(z), want), (models.softmax(z), np.exp(want))):
        assert got.flags.c_contiguous and got.shape == z.shape
        assert got.tobytes() == expected.tobytes()


def test_pseudo_labels_keep_ground_truth():
    g = _toy_separable()
    params = train_surrogate(g, SurrogateHyper(epochs=50))
    out = pseudo_labels(params, g)
    assert out[0] == 0 and out[1] == 1


def test_pseudo_labels_argmax_and_tie_break():
    # zero weights give uniform logits everywhere: ties resolve to class 0
    g = _toy_separable()
    out = pseudo_labels(SurrogateParams(np.zeros((3, 2))), g)
    assert out[2] == 0
    assert out[0] == 0 and out[1] == 1  # labeled passthrough beats logits


def test_margins_hand_cases():
    logits = np.array([[2.0, 1.0, 0.0], [0.2, 0.7, 0.0], [1.0, 1.0, 1.0]])
    labels = np.array([0, 0, 2])
    phi = margins(logits, labels)
    assert np.isclose(phi[0], 1.0)
    assert np.isclose(phi[1], -0.5)
    assert np.isclose(phi[2], 0.0)


def test_margins_sign_iff_strictly_misclassified():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(40, 4))
    labels = rng.integers(0, 4, size=40)
    phi = margins(logits, labels)
    strictly_wrong = logits[np.arange(40), labels] < logits.max(axis=1)
    assert np.array_equal(phi < 0, strictly_wrong)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SurrogateHyper(seed=1.5),
        lambda: SurrogateHyper(epochs=10.0),
        lambda: SurrogateHyper(seed=-1),
        lambda: VictimHyper(seed=True),
        lambda: VictimHyper(epochs=False),
        lambda: VictimHyper(hidden=16.0),
        lambda: VictimHyper(hidden=0),
    ],
)
def test_training_hypers_reject_non_integer_counts(make):
    with pytest.raises(ValueError, match="seed|epochs|hidden"):
        make()
    assert SurrogateHyper(seed=np.int64(2), epochs=np.int32(3)).seed == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: SurrogateHyper(lr=float("inf")),
        lambda: SurrogateHyper(weight_decay=float("nan")),
        lambda: VictimHyper(lr=float("nan")),
        lambda: VictimHyper(weight_decay=float("inf")),
        lambda: CAWeightParams(alpha1=float("inf")),
        lambda: CAWeightParams(beta1=float("nan")),
        lambda: CAWeightParams(alpha2=float("nan")),
        lambda: CAWeightParams(beta2=float("inf")),
        lambda: LossSpec("cw", cw_kappa=float("nan")),
        lambda: LossSpec("cw", cw_kappa=float("inf")),
    ],
)
def test_hyperparameters_reject_non_finite_values(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_margins_read_the_runner_up_logit():
    rng = np.random.default_rng(3)
    logits = rng.integers(-2, 3, size=(60, 4)).astype(float) / 3.0  # many exact ties
    labels = rng.integers(0, 4, size=60)
    rows = np.arange(60)
    expected = logits[rows, labels] - logits[rows, models.runner_up(logits, labels)]
    phi = margins(logits, labels)
    assert phi.tobytes() == expected.tobytes()
    assert (phi == 0.0).any()


def test_margins_need_two_classes():
    with pytest.raises(ValueError):
        margins(np.ones((3, 1)), np.zeros(3, dtype=int))


def test_train_victim_learns_sbm(small_sbm):
    acc = train_victim(small_sbm, VictimHyper(epochs=150, seed=0))
    assert acc > 0.9


def test_train_victim_zero_epochs_is_chance_level(small_sbm):
    accs = [train_victim(small_sbm, VictimHyper(epochs=0, seed=s)) for s in range(10)]
    assert abs(np.mean(accs) - 0.5) < 0.15  # two balanced classes


def test_train_victim_deterministic(small_sbm):
    a1 = train_victim(small_sbm, VictimHyper(epochs=40, seed=3))
    a2 = train_victim(small_sbm, VictimHyper(epochs=40, seed=3))
    assert a1 == a2


def test_train_victim_permutation_invariant_accuracy():
    g = sbm_graph((15, 15), 0.35, 0.03, seed=7)
    perm = np.random.default_rng(0).permutation(g.n_nodes)
    gp = Graph(
        g.adjacency[np.ix_(perm, perm)],
        g.features[perm],
        g.labels[perm],
        g.labeled_mask[perm],
        g.n_classes,
    )
    # dropout draws differ once node order changes, so compare without dropout
    hyper = VictimHyper(epochs=80, dropout=0.0, seed=1)
    acc = train_victim(g, hyper)
    acc_p = train_victim(gp, hyper)
    assert np.isclose(acc, acc_p)


def _bow_sbm(block=40, dim=300, seed=3) -> Graph:
    """Three-block SBM with binary bag-of-words features, about 2.5% nonzero."""
    g = sbm_graph((block,) * 3, p_in=0.12 * 40 / block, p_out=0.02 * 40 / block, seed=seed)
    rng = np.random.default_rng(11)
    topics = rng.random((3, dim)) < 0.1
    probs = np.where(topics, 0.06, 0.02)
    X = (rng.random((g.n_nodes, dim)) < probs[g.labels]).astype(float)
    return Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)


def _identity_featured(tmp_path) -> Graph:
    """A featureless dataset: ``load_dataset`` gives it N x N identity features."""
    src = sbm_graph((40, 40, 40), p_in=0.12, p_out=0.02, seed=3)
    return load_dataset(write_plain_dataset(src, tmp_path, features=False))


def _victim_accuracies(g, dropout):
    return [train_victim(g, VictimHyper(epochs=60, dropout=dropout, seed=s)) for s in range(3)]


# Victim accuracies per seed at epochs=60, keyed by features and dropout.
# The dropout-0.0 entries were recorded when every feature product was
# dense: both feature matrices are sparse enough to be multiplied as CSR,
# which must not change a prediction. The dropout-0.5 entries were recorded
# when the dropout masks became draws at the units that reach the loss only:
# the nonzero entries of the 2-hop feature rows and the 1-hop hidden rows.
PINNED_SPARSE_VICTIM_ACCURACIES = {
    ("bag_of_words", 0.5): [0.8888888888888888, 0.8888888888888888, 0.8796296296296297],
    ("bag_of_words", 0.0): [0.8888888888888888, 0.8796296296296297, 0.8796296296296297],
    ("identity", 0.5): [0.7222222222222222, 0.6759259259259259, 0.6203703703703703],
    ("identity", 0.0): [0.7870370370370371, 0.8055555555555556, 0.7777777777777778],
}


@pytest.mark.parametrize("features, dropout", sorted(PINNED_SPARSE_VICTIM_ACCURACIES))
def test_train_victim_pinned_sparse_feature_accuracies(features, dropout, tmp_path):
    g = _bow_sbm() if features == "bag_of_words" else _identity_featured(tmp_path)
    assert g.sparse_features is not None
    assert _victim_accuracies(g, dropout) == PINNED_SPARSE_VICTIM_ACCURACIES[features, dropout]


def _half_zero_sbm() -> Graph:
    """The BoW SBM's graph with 20-dim Gaussian features, about half of them zero."""
    g = _bow_sbm()
    rng = np.random.default_rng(5)
    X = np.eye(3, 20)[g.labels] + rng.normal(size=(g.n_nodes, 20))
    X[rng.random(X.shape) < 0.5] = 0.0
    return Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)


@pytest.mark.parametrize("dropout", [0.5, 0.0])
def test_train_victim_sparse_features_match_the_dense_path(dropout, monkeypatch):
    # both paths draw the input mask at the nonzeros only, in row-major order
    for make in (_bow_sbm, _half_zero_sbm):
        monkeypatch.setattr(graph, "SPARSE_FEATURE_DENSITY", 1.0)
        g = make()
        assert g.sparse_features is not None
        sparse = _victim_accuracies(g, dropout)
        monkeypatch.setattr(graph, "SPARSE_FEATURE_DENSITY", 0.0)
        g = make()
        assert g.sparse_features is None
        assert _victim_accuracies(g, dropout) == sparse


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_surrogate_sparse_design_matches_the_dense_one_bit_for_bit(seed, monkeypatch):
    # zero terms, -0.0 ones included, are all the CSR product skips: every sum keeps its order and its bits
    g = _bow_sbm()
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(g.n_nodes, 40)) * 10.0 ** rng.integers(-8, 9, size=(g.n_nodes, 40))
    X[rng.random(X.shape) < 0.9] = 0.0
    X[rng.random(X.shape) < 0.05] = -0.0
    designs, build = [], models._labeled_design

    def spy(h):  # train_surrogate builds its design here, on either side of the switch
        designs.append(build(h))
        return designs[-1]

    monkeypatch.setattr(models, "_labeled_design", spy)
    weights = []
    for density, has_csr in ((1.0, True), (0.0, False)):
        monkeypatch.setattr(graph, "SPARSE_FEATURE_DENSITY", density)
        h = Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)
        assert (h.sparse_features is not None) == has_csr
        weights.append(train_surrogate(h, SurrogateHyper(epochs=20)).weight)
    assert (X < 0).any() and (np.signbit(X) & (X == 0)).any()
    assert np.array_equal(designs[0], designs[1])
    assert np.array_equal(weights[0], weights[1])


class _NoMatmul(np.ndarray):
    """A feature array that refuses every matrix product: a surrogate forward must take the CSR form."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("dense product with sparse features")
        plain = (x.view(np.ndarray) if isinstance(x, _NoMatmul) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def test_every_surrogate_forward_multiplies_sparse_features_as_csr(monkeypatch):
    spec = LossSpec("nll", CAWeightParams(4.5, 1.0, 1.0, 1.0))
    cfg = AttackConfig(budget=2, loss_spec=spec, surrogate_hyper=SurrogateHyper(epochs=50))
    runs = []
    for density in (1.0, 0.0):
        monkeypatch.setattr(graph, "SPARSE_FEATURE_DENSITY", density)
        g = _bow_sbm()
        assert (g.sparse_features is not None) == (density > 0)
        if density:  # the dense array stays for other readers, but no forward may multiply it
            object.__setattr__(g, "features", g.features.view(_NoMatmul))
        params = train_surrogate(g, cfg.surrogate_hyper)
        pseudo = pseudo_labels(params, g)
        us, vs, s, _ = attack_factors(g, params, spec, pseudo)
        scatter = margin_gradient_scatter(g, spec, cfg.surrogate_hyper)
        runs.append((pseudo, us, vs, s, np.array(scatter), meta_attack(g, cfg).flips))
    (pseudo, *factors, scatter, flips), (pseudo_d, *factors_d, scatter_d, flips_d) = runs
    assert np.array_equal(pseudo, pseudo_d)
    assert all(np.allclose(a, b, rtol=1e-10, atol=1e-14) for a, b in zip(factors, factors_d))
    assert np.allclose(scatter, scatter_d, rtol=1e-10, atol=1e-14)
    assert len(flips) == 2 and flips == flips_d


def _with_outlying_components(g: Graph) -> Graph:
    """``g`` plus a 4-node path without a labeled node and an isolated labeled node."""
    path = sp.diags([np.ones(3), np.ones(3)], [-1, 1], shape=(4, 4))
    A = sp.block_diag((g.csr, path, sp.csr_matrix((1, 1))))
    X = np.vstack([g.features, np.random.default_rng(7).normal(size=(5, g.features.shape[1]))])
    labels = np.concatenate([g.labels, [0, 1, 1, 2, 0]])
    mask = np.concatenate([g.labeled_mask, [False] * 4 + [True]])
    return Graph(A, X, labels, mask, g.n_classes)


def _with_features(kind: str):
    def make() -> Graph:
        g = _bow_sbm()
        n = g.n_nodes
        X = np.eye(n) if kind == "identity" else np.random.default_rng(5).normal(size=(n, 20))
        return Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)

    return make


def _narrow_sparse_sbm() -> Graph:
    """The BoW SBM's graph with 10-dim binary features, about 5% nonzero."""
    g = _bow_sbm()
    X = (np.random.default_rng(5).random((g.n_nodes, 10)) < 0.05).astype(float)
    return Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)


# Feature widths d = 300, 20, 20, N and 20 train with Ahat (X_d W1); the two
# cases of d = 7 and d = 10 below the hidden width 16 train with (Ahat X_d) W1.
VICTIM_ORACLE_CASES = {
    "bag_of_words": _bow_sbm,
    "gaussian": _with_features("gaussian"),
    "half_zero": _half_zero_sbm,
    "identity": _with_features("identity"),
    "outlying_components": lambda: _with_outlying_components(_half_zero_sbm()),
    "narrow_sbm": lambda: sbm_graph((25,) * 7, 0.2, 0.01, feature_noise=1.5, seed=3),
    "narrow_sparse": _narrow_sparse_sbm,
}


@pytest.mark.parametrize("dropout", [0.5, 0.0])
@pytest.mark.parametrize("kind", sorted(VICTIM_ORACLE_CASES))
def test_train_victim_matches_the_full_graph_oracle(kind, dropout):
    # training on the 2-hop receptive field of the labeled nodes reads the
    # same loss, gradients and live dropout units as the full-graph loop
    g = VICTIM_ORACLE_CASES[kind]()
    want = [train_victim_full(g, VictimHyper(epochs=60, dropout=dropout, seed=s)) for s in range(3)]
    assert _victim_accuracies(g, dropout) == want


def test_both_first_layer_associations_agree_on_the_meta_cora_shape():
    # the graph of the meta-cora benchmark input: d = 7 < h = 16
    g = sbm_graph((390,) * 7, 0.0083, 0.00035, seed=1)
    ahat = normalize_adjacency(g.csr)
    n1, _ = models._receptive(ahat[g.labeled_mask])
    n2, a_12 = models._receptive(ahat[n1])
    rng = np.random.default_rng(0)
    x2, W1 = g.features[n2], models._glorot(rng, 7, 16)
    g_s1 = rng.normal(size=(n1.size, 16))
    ax = a_12 @ x2
    pairs = [(ax @ W1, a_12 @ (x2 @ W1)), (ax.T @ g_s1, x2.T @ (a_12.T.tocsr() @ g_s1))]
    for left, right in pairs:  # s1, then dW1
        assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(right)


class _RecordingRng:
    """Forwards every call to a Generator and records each draw's name and shape."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self._draws.append((name, np.shape(out)))
            return out

        return record


@pytest.mark.parametrize("density", [1.0, 0.0])  # the CSR path, then the dense one
def test_train_victim_draws_the_input_mask_at_the_nonzeros(density, monkeypatch):
    monkeypatch.setattr(graph, "SPARSE_FEATURE_DENSITY", density)
    g = _bow_sbm()
    assert (g.sparse_features is not None) == (density == 1.0)
    d, k, h = g.features.shape[1], g.n_classes, 16
    ahat = normalize_adjacency(g.csr)
    n1 = np.unique(ahat[g.labeled_mask].indices)  # hidden rows the loss reads
    n2 = np.unique(ahat[n1].indices)  # feature rows those read
    assert n1.size < n2.size < g.n_nodes
    hyper = VictimHyper(hidden=h, epochs=2, seed=2)
    want = train_victim(g, hyper)
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingRng(default_rng(seed), draws))
    assert train_victim(g, hyper) == want
    glorot = [("uniform", (d, h)), ("uniform", (h, k))]
    epoch = [("random", (np.count_nonzero(g.features[n2]),)), ("random", (n1.size, h))]
    assert draws == glorot + 2 * epoch


def test_train_victim_holds_no_feature_sized_array_on_sparse_features():
    g = _bow_sbm(block=400, dim=1000, seed=0)
    n, d = g.features.shape
    assert n > 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_victim(g, VictimHyper(epochs=3, seed=0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # The input dropout draw, the CSR copies and the dropout factors scale
    # with nnz(X): one full-shape draw or dense dropped copy of X would
    # alone be N*d doubles.
    assert peak <= 0.75 * n * d * 8


CONFIGS = [SurrogateHyper, VictimHyper, CAWeightParams, LossSpec, AttackConstraints, AttackConfig, ExperimentConfig]
CONFIG_FIELDS = [
    (cls, f.name, typing.get_type_hints(cls)[f.name]) for cls in CONFIGS for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize(
    "cls, name, kind", CONFIG_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name, _ in CONFIG_FIELDS]
)
def test_every_config_field_follows_the_one_type_rule(cls, name, kind):
    """By its annotation, each field rejects at construction what does not fit
    it and stores a numpy scalar that does as the Python value."""
    default = getattr(cls(), name)
    bad = [None, 1] if kind is str else [None, "1"]
    if kind in (int, float):
        bad += [True, np.bool_(False)]
    if kind is float:
        bad += [float("nan"), float("inf"), np.float64(-np.inf), 10**400]  # no float holds 10**400
    if kind is tuple:
        bad += [[True], [np.bool_(False)], [0.5]]
    if kind is bool:
        bad += [0, 1, np.int64(1)]
    for value in bad:
        if value is None and isinstance(None, kind):
            continue  # ``X | None`` takes None
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})
    as_numpy = {int: [np.int64, np.int32], float: [np.float64, np.float32], bool: [np.bool_]}
    for np_type in as_numpy.get(kind, []):
        stored = getattr(cls(**{name: np_type(default)}), name)
        assert type(stored) is kind and stored == np_type(default).item()
    if kind is tuple:
        assert getattr(cls(**{name: [np.int64(d) for d in default]}), name) == default
