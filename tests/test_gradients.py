import tracemalloc

import numpy as np
import pytest

from graphpoison import (
    CAWeightParams,
    LossSpec,
    SurrogateHyper,
    SurrogateParams,
    finite_difference_gradient,
    per_node_gradients,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
)
from graphpoison.gradients import CHUNK_ROWS, attack_factors, attack_objective, pair_scores, score_factors
from graphpoison.models import propagation

from .conftest import tiny_graph
from .oracles import (
    attack_gradient,
    dense_attack_gradient,
    node_gradient,
    pair_scores_two_products,
    per_node_gradients_loop,
)

CA = CAWeightParams(4.5, 1.0, 1.0, 1.0)
ALL_SPECS = [
    LossSpec("nll"),
    LossSpec("cw", cw_kappa=1.0),
    LossSpec("nll", CA),
    LossSpec("cw", CA, cw_kappa=1.0),
]


def _trained(g, epochs=60):
    params = train_surrogate(g, SurrogateHyper(epochs=epochs))
    return params, pseudo_labels(params, g)


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_zero_weights_give_zero_gradient():
    g = tiny_graph(n=6, seed=1)
    params = SurrogateParams(np.zeros((4, 3)))
    grad = attack_gradient(g, params, LossSpec("nll"), g.labels)
    assert not grad.any()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=["nll", "cw", "ca-nll", "ca-cw"])
def test_analytic_matches_finite_differences(spec):
    g = tiny_graph(n=8, seed=11)
    params, labels = _trained(g)
    analytic = attack_gradient(g, params, spec, labels)
    fd = finite_difference_gradient(g, params, spec, labels, h=1e-5)
    assert _rel_err(analytic, fd) < 1e-4


def test_gradient_is_symmetric_zero_diagonal():
    g = tiny_graph(n=9, seed=5)
    params, labels = _trained(g)
    m = attack_gradient(g, params, LossSpec("nll"), labels)
    assert np.array_equal(m, m.T)
    assert not np.diagonal(m).any()
    assert np.all(np.isfinite(m))


def test_fd_quadratic_convergence():
    g = tiny_graph(n=7, seed=3)
    params, labels = _trained(g)
    spec = LossSpec("nll")
    exact = attack_gradient(g, params, spec, labels)
    err = {
        h: np.abs(finite_difference_gradient(g, params, spec, labels, h=h) - exact).max()
        for h in (1e-3, 5e-4)
    }
    ratio = err[1e-3] / err[5e-4]
    assert 2.5 < ratio < 6.0


def test_fd_rejects_nonpositive_step():
    g = tiny_graph()
    params, labels = _trained(g, epochs=5)
    for h in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            finite_difference_gradient(g, params, LossSpec("nll"), labels, h=h)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=["nll", "cw", "ca-nll", "ca-cw"])
def test_factors_report_the_objective_attack_objective_evaluates(spec):
    # the attack loop compares info["objective"] with attack_objective after a
    # flip: both must come from one evaluation, so they agree to the last bit
    g = sbm_graph((15, 15, 15), 0.2, 0.02, seed=2)
    params, labels = _trained(g)
    _, _, _, info = attack_factors(g, params, spec, labels)
    again = attack_objective(propagation(g), g.features, params, labels, g.unlabeled_mask, spec, weights=info["weights"])
    assert info["objective"] == again


@pytest.mark.parametrize(
    "spec, expected", zip(ALL_SPECS, [1, 2, 1, 2]), ids=["nll", "cw", "ca-nll", "ca-cw"]
)
def test_factors_compute_the_margins_once(spec, expected, monkeypatch):
    # one evaluation shares its margins among the weights, the CW active set
    # and info["margins"]; the CW loss computes its own
    import graphpoison.gradients as gradients_module
    import graphpoison.losses as losses_module
    from graphpoison.models import margins

    g = sbm_graph((15, 15, 15), 0.2, 0.02, seed=2)
    params, labels = _trained(g)
    calls = []

    def counted(*args):
        calls.append(1)
        return margins(*args)

    for module in (gradients_module, losses_module):
        monkeypatch.setattr(module, "margins", counted)
    attack_factors(g, params, spec, labels)
    assert len(calls) == expected


def test_ca_unit_weights_reduce_to_base_gradient():
    g = tiny_graph(n=10, seed=7)
    params, labels = _trained(g)
    unit = CAWeightParams(1.0, 0.0, 1.0, 0.0)
    for base in ("nll", "cw"):
        ca = attack_gradient(g, params, LossSpec(base, unit), labels)
        plain = attack_gradient(g, params, LossSpec(base), labels)
        assert np.abs(ca - plain).max() <= 1e-12 * np.abs(plain).max()


def test_per_node_sum_equals_total_gradient():
    g = tiny_graph(n=9, seed=13)
    params, labels = _trained(g)
    for spec in ALL_SPECS:
        total = sum(
            node_gradient(g, params, spec, labels, v) for v in np.flatnonzero(g.unlabeled_mask)
        )
        full = attack_gradient(g, params, spec, labels)
        assert np.allclose((total + total.T) / 2.0, full, atol=1e-10 * max(np.abs(full).max(), 1))


def test_fast_norms_match_naive_node_gradients(three_chunk_sbm):
    """The one-pass norms equal the per-node loop and the dense matrices; the
    three-chunk graph has about 630 unlabeled nodes, so three CHUNK_ROWS blocks."""
    g = sbm_graph((12, 12), 0.3, 0.05, seed=4)
    params, labels = _trained(g)
    big_params, big_labels = _trained(three_chunk_sbm)
    assert (~three_chunk_sbm.labeled_mask).sum() > 2 * CHUNK_ROWS
    for spec in ALL_SPECS:
        fast = dict(per_node_gradients(g, params, spec, labels))
        assert fast == pytest.approx(dict(per_node_gradients_loop(g, params, spec, labels)), rel=1e-12)
        for v in fast:
            naive = np.linalg.norm(node_gradient(g, params, spec, labels, v))
            assert fast[v] == pytest.approx(naive, rel=1e-12)
        fast = dict(per_node_gradients(three_chunk_sbm, big_params, spec, big_labels))
        loop = dict(per_node_gradients_loop(three_chunk_sbm, big_params, spec, big_labels))
        assert list(fast) == list(loop) and min(loop.values()) > 0
        assert fast == pytest.approx(loop, rel=1e-12)


def test_norms_on_isolated_degree_one_and_chain_nodes():
    """Isolated and degree-1 unlabeled nodes and a 2-hop chain, which the loader
    drops but ``Graph`` accepts; a node the CW clamp turns off reads exactly 0."""
    from graphpoison import build_graph
    from graphpoison.graph import normalize_adjacency
    from graphpoison.models import forward_logits, margins

    rng = np.random.default_rng(3)
    n = 8
    mask = np.zeros(n, dtype=bool)
    mask[[1, 5]] = True
    # chain 0-1-2-3, pair 5-6, nodes 4 and 7 isolated
    g = build_graph([(0, 1), (1, 2), (2, 3), (5, 6)], rng.normal(size=(n, 3)), rng.integers(0, 3, n), mask, 3)
    assert list(g.degrees()) == [1, 2, 2, 1, 0, 1, 1, 0]
    params = SurrogateParams(rng.normal(size=(3, 3)) * 3.0)
    logits = forward_logits(params, normalize_adjacency(g.csr), g.features)
    labels = logits.argmax(axis=1)
    labels[2] = logits[2].argmin()  # node 2, mid-chain, misclassified by a wide margin
    assert margins(logits, labels)[2] < -1.0
    for spec in ALL_SPECS:
        fast = dict(per_node_gradients(g, params, spec, labels))
        assert list(fast) == [0, 2, 3, 4, 6, 7]
        assert fast == pytest.approx(dict(per_node_gradients_loop(g, params, spec, labels)), rel=1e-12)
        for v in fast:
            assert fast[v] == pytest.approx(np.linalg.norm(node_gradient(g, params, spec, labels, v)), rel=1e-12)
        assert (fast[2] == 0.0) == (spec.base == "cw")  # g_z[2] = 0 under the clamp at kappa 1
        assert all(fast[v] > 0 for v in fast if v != 2)


def test_ca_scaling_identity_entrywise():
    from graphpoison.losses import resolve_weights
    from graphpoison.graph import normalize_adjacency
    from graphpoison.models import forward_logits, margins

    g = sbm_graph((15, 15), 0.3, 0.03, seed=6)
    params, labels = _trained(g)
    spec_ca = LossSpec("nll", CA)
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    weights = resolve_weights(margins(logits, labels), spec_ca)

    for v in np.flatnonzero(g.unlabeled_mask)[:10]:
        base_mat = node_gradient(g, params, LossSpec("nll"), labels, v)
        ca_mat = node_gradient(g, params, spec_ca, labels, v)
        scale = max(np.abs(ca_mat).max(), 1e-30)
        assert np.abs(ca_mat - weights[v] * base_mat).max() <= 1e-10 * scale


def test_per_node_norm_scales_with_weight():
    g = sbm_graph((15, 15), 0.3, 0.03, seed=8)
    params, labels = _trained(g)
    from graphpoison.losses import resolve_weights
    from graphpoison.graph import normalize_adjacency
    from graphpoison.models import forward_logits, margins

    spec_ca = LossSpec("nll", CA)
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    weights = resolve_weights(margins(logits, labels), spec_ca)
    base = dict(per_node_gradients(g, params, LossSpec("nll"), labels))
    ca = dict(per_node_gradients(g, params, spec_ca, labels))
    for v in base:
        assert ca[v] == pytest.approx(weights[v] * base[v], rel=1e-9, abs=1e-12)


def _star():
    """Hub-and-spokes star plus one isolated node: degrees {7, 1, ..., 1, 0}."""
    from graphpoison import build_graph

    rng = np.random.default_rng(17)
    n = 9
    feats = rng.normal(size=(n, 3)) * 100.0
    labels = rng.integers(0, 3, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[:3] = True
    star = build_graph([(0, k) for k in range(1, 8)], feats, labels, mask, n_classes=3)
    return star, SurrogateParams(rng.normal(size=(3, 3)) * 0.01), labels


def test_fd_agreement_on_stress_graphs():
    """Heterogeneous degrees (a star), near-isolated nodes, big feature scales."""
    star, params, labels = _star()
    for spec in ALL_SPECS:
        analytic = attack_gradient(star, params, spec, labels)
        fd = finite_difference_gradient(star, params, spec, labels, h=1e-5)
        scale = np.abs(fd).max()
        assert scale > 0
        assert np.abs(analytic - fd).max() / scale < 1e-4, spec


def test_huge_beta_drives_norm_to_zero():
    g = tiny_graph(n=8, seed=21)
    params, labels = _trained(g)
    crushing = LossSpec("nll", CAWeightParams(1.0, 1e6, 1.0, 1e6))
    norms = dict(per_node_gradients(g, params, crushing, labels))
    base = dict(per_node_gradients(g, params, LossSpec("nll"), labels))
    shrunk = [v for v in norms if norms[v] < 1e-6 * max(base[v], 1e-30) or base[v] < 1e-12]
    # every node with a nonzero margin collapses; allow the rare exact-zero margin
    assert len(shrunk) >= len(norms) - 1


@pytest.mark.parametrize("spec", ALL_SPECS, ids=["nll", "cw", "ca-nll", "ca-cw"])
@pytest.mark.parametrize("graph", ["tiny", "star", "medium_sbm"])
def test_factored_gradient_matches_dense_formula(spec, graph, medium_sbm):
    if graph == "star":
        g, params, labels = _star()
    else:
        g = tiny_graph(n=9, seed=5) if graph == "tiny" else medium_sbm
        params, labels = _trained(g)
    factored = attack_gradient(g, params, spec, labels)
    dense = dense_attack_gradient(g, params, spec, labels)
    assert np.abs(dense).max() > 0
    assert _rel_err(factored, dense) <= 1e-12


@pytest.mark.parametrize(
    "spec", [LossSpec("nll"), LossSpec("nll", CA), LossSpec("cw"), LossSpec("cw", CA)]
)
def test_one_product_scores_match_the_two_product_form(three_chunk_sbm, spec):
    """The stacked rank-(4K+2) product rounds differently from two rank-2K
    products, at the ulp level only; the chunked scan the attack reads agrees too."""
    g = three_chunk_sbm
    params, labels = _trained(g)
    us, vs, s, _ = attack_factors(g, params, spec, labels)
    every = slice(0, g.n_nodes)
    two = pair_scores_two_products(us, vs, s, every, every)
    scale = np.abs(two).max()
    assert scale > 0
    assert np.abs(pair_scores(*score_factors(us, vs, s), every, every) - two).max() <= 1e-14 * scale
    assert np.abs(attack_gradient(g, params, spec, labels) - two).max() <= 1e-14 * scale


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_gradient_memory_stays_within_a_few_n_by_n_arrays():
    g = sbm_graph((200,) * 7, 0.02, 0.001, seed=0)
    n = g.n_nodes
    assert n > 1300
    params, labels = _trained(g, epochs=20)
    spec = LossSpec("nll", CA)
    square = n * n * 8
    # the output itself is one N x N array; the reused score block and the
    # temporaries of the scan beside it come to about 1.75 chunks of rows
    assert _traced_peak(attack_gradient, g, params, spec, labels) <= square + 2 * CHUNK_ROWS * n * 8
    assert _traced_peak(per_node_gradients, g, params, spec, labels) <= 0.25 * square
