import numpy as np
import pytest
import scipy.sparse as sp

from graphpoison import (
    AttackConfig,
    CAWeightParams,
    Graph,
    LossSpec,
    VictimHyper,
    evaluate,
    margin_gradient_scatter,
    meta_attack,
    sbm_graph,
    train_victim,
)

FAST_VICTIM = VictimHyper(epochs=80)


def test_evaluate_basic_statistics(small_sbm):
    rep = evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=(0, 1, 2, 3))
    assert len(rep.per_seed_accuracy) == 4
    assert rep.mean == pytest.approx(np.mean(rep.per_seed_accuracy))
    expected_ci = 1.96 * np.std(rep.per_seed_accuracy, ddof=1) / 2.0
    assert rep.ci95_halfwidth == pytest.approx(expected_ci)
    assert rep.flip_count == 0


def test_evaluate_single_seed_degenerate(small_sbm):
    rep = evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=(7,))
    assert len(rep.per_seed_accuracy) == 1
    assert rep.ci95_halfwidth == 0.0


def test_evaluate_equal_accuracies_zero_halfwidth():
    from graphpoison.evaluation import confidence_halfwidth

    assert confidence_halfwidth(np.array([0.8, 0.8, 0.8])) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_requires_seeds(small_sbm):
    with pytest.raises(ValueError):
        evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=())


@pytest.mark.parametrize("seeds", [[1.9], [0, True], [np.float64(2.0)]])
def test_evaluate_rejects_non_integer_seeds(small_sbm, seeds, monkeypatch):
    import graphpoison.evaluation as evaluation_module

    fits = []
    monkeypatch.setattr(evaluation_module, "train_victim", lambda g, hyper: fits.append(hyper) or 0.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=seeds)
    assert fits == []  # checked before the first fit
    assert evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=[np.int64(3)]).per_seed_accuracy == [0.5]


def test_evaluate_never_converts_bag_of_words_features(monkeypatch):
    # Graph(...) derives the CSR form once; every fit of every seed reuses it
    g = sbm_graph((30, 30, 30), 0.15, 0.02, seed=4)
    X = (np.random.default_rng(2).random((g.n_nodes, 200)) < 0.03).astype(float)
    g = Graph(g.csr, X, g.labels, g.labeled_mask, g.n_classes)
    assert g.sparse_features is not None
    converted, real = [], sp.csr_matrix

    def spy(arg1, *args, **kwargs):
        converted.append((type(arg1), getattr(arg1, "shape", None)))
        return real(arg1, *args, **kwargs)

    monkeypatch.setattr(sp, "csr_matrix", spy)
    assert len(evaluate(g, g, VictimHyper(epochs=5), seeds=(0, 1, 2)).per_seed_accuracy) == 3
    assert converted  # the spy is live: each fit normalizes the adjacency through it
    assert (np.ndarray, X.shape) not in converted


def test_evaluate_rejects_mismatched_graphs(small_sbm):
    other = sbm_graph((21, 21), 0.3, 0.03, seed=9)
    with pytest.raises(ValueError):
        evaluate(small_sbm, other, FAST_VICTIM, seeds=(0,))


def test_evaluate_deterministic_and_seed_permutation_invariant_mean(small_sbm):
    r1 = evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=(0, 1, 2))
    r2 = evaluate(small_sbm, small_sbm, FAST_VICTIM, seeds=(2, 0, 1))
    assert r1.mean == pytest.approx(r2.mean)
    assert sorted(r1.per_seed_accuracy) == sorted(r2.per_seed_accuracy)


def test_poisoning_lowers_accuracy_across_seeds(medium_sbm):
    """10% budget on the 2-block SBM beats clean in at least 8 of 10 seeds."""
    budget = int(0.10 * medium_sbm.n_edges)
    res = meta_attack(medium_sbm, AttackConfig(budget=budget, loss_spec=LossSpec("nll")))
    drops = 0
    for s in range(10):
        clean_acc = train_victim(medium_sbm, VictimHyper(seed=s))
        pois_acc = train_victim(res.poisoned, VictimHyper(seed=s))
        drops += pois_acc < clean_acc
    assert drops >= 8


def _noisy_fixture():
    # enough feature noise that the surrogate misclassifies some nodes
    return sbm_graph((60, 60), p_in=0.1, p_out=0.02, feature_noise=1.5, seed=5)


# Victim accuracies per seed at epochs=60, keyed by dropout. The victim is
# deterministic given its seed, so any change to its training or scoring
# arithmetic shows here. medium_sbm reads 1.0 for every seed, so the noisy
# fixture is used: its accuracies sit below 1. The dropout-0.5 entry was
# recorded when the dropout masks became draws at the units that reach the
# loss only, the 2-hop receptive field of the labeled nodes.
PINNED_VICTIM_ACCURACIES = {
    0.5: [0.8518518518518519, 0.8518518518518519, 0.8518518518518519],
    0.0: [0.8611111111111112, 0.8796296296296297, 0.8703703703703703],
}


@pytest.mark.parametrize("dropout", sorted(PINNED_VICTIM_ACCURACIES))
def test_evaluate_pinned_victim_accuracies(dropout):
    g = _noisy_fixture()
    rep = evaluate(g, g, VictimHyper(epochs=60, dropout=dropout), seeds=(0, 1, 2))
    assert rep.per_seed_accuracy == PINNED_VICTIM_ACCURACIES[dropout]


def test_pinned_victim_accuracies_tell_the_seeds_apart():
    # The noisy fixture reads the same dropout-0.5 accuracy for all three
    # seeds, so its pin would pass a victim that ignored ``hyper.seed``;
    # on this dense-feature graph the three seeds read apart.
    g = sbm_graph((40, 40, 40), 0.15, 0.04, feature_noise=2.0, seed=5)
    rep = evaluate(g, g, VictimHyper(epochs=60, dropout=0.5), seeds=(0, 1, 2))
    assert rep.per_seed_accuracy == [0.5277777777777778, 0.5370370370370371, 0.5462962962962963]
    assert len(set(rep.per_seed_accuracy)) == 3


def test_scatter_covers_unlabeled_pool():
    g = _noisy_fixture()
    rows = margin_gradient_scatter(g, LossSpec("nll"))
    nodes = [r[0] for r in rows]
    assert sorted(nodes) == sorted(np.flatnonzero(g.unlabeled_mask).tolist())


def test_scatter_ca_scales_base_by_weights():
    from graphpoison.losses import resolve_weights
    from graphpoison.graph import normalize_adjacency
    from graphpoison.models import forward_logits, margins, train_surrogate

    g = _noisy_fixture()
    ca = LossSpec("nll", CAWeightParams(4.5, 1.0, 1.0, 1.0))
    base_rows = {v: n for v, _, n in margin_gradient_scatter(g, LossSpec("nll"))}
    ca_rows = {v: n for v, _, n in margin_gradient_scatter(g, ca)}

    params = train_surrogate(g)
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    weights = resolve_weights(margins(logits, g.labels), ca)
    for v in base_rows:
        assert ca_rows[v] == pytest.approx(weights[v] * base_rows[v], rel=1e-9, abs=1e-12)


def test_scatter_ca_downweights_misclassified_nll_does_not():
    """The weighted loss moves gradient mass off negative-margin nodes."""
    g = _noisy_fixture()
    splits = {}
    for name, spec in (
        ("nll", LossSpec("nll")),
        ("ca", LossSpec("nll", CAWeightParams(4.5, 1.0, 1.0, 1.0))),
    ):
        rows = margin_gradient_scatter(g, spec)
        phi = np.array([r[1] for r in rows])
        norm = np.array([r[2] for r in rows])
        neg = norm[phi < -0.1]
        pos = norm[(phi > 0) & (phi < 0.3)]
        assert len(neg) >= 5 and len(pos) >= 5  # the fixture must exercise both sides
        splits[name] = (neg.mean(), pos.mean())
    ca_neg, ca_pos = splits["ca"]
    nll_neg, nll_pos = splits["nll"]
    assert ca_neg < ca_pos
    assert not nll_neg < nll_pos
