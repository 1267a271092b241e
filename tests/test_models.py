import numpy as np
import pytest

from graphpoison import (
    Graph,
    SurrogateHyper,
    SurrogateParams,
    VictimHyper,
    build_graph,
    forward_logits,
    margins,
    normalize_adjacency,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
    train_victim,
)
from .conftest import tiny_graph
from .oracles import surrogate_nll


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
    assert np.allclose(p0.weight, expected)


def test_train_surrogate_loss_nonincreasing(small_sbm):
    losses = [
        surrogate_nll(train_surrogate(small_sbm, SurrogateHyper(lr=0.05, epochs=k)), small_sbm)
        for k in range(0, 31, 5)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


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
