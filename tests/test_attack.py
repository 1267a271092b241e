import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpoison
import graphpoison.attack as attack_module
from graphpoison import (
    AttackConfig,
    AttackConstraints,
    CAWeightParams,
    LossSpec,
    SurrogateHyper,
    VictimHyper,
    build_graph,
    constraint_check,
    count_flips,
    dice_attack,
    evaluate,
    flip_edge,
    meta_attack,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
)
from graphpoison.gradients import CHUNK_ROWS, attack_factors
from graphpoison.models import _labeled_design

from .conftest import tiny_graph
from .oracles import (
    assembled_scores,
    attack_gradient,
    degree_likelihood_ratio,
    dense_best_pair,
    dense_greedy_attack,
    score_flips,
)

FAST_SURROGATE = SurrogateHyper(epochs=60)
CA = CAWeightParams(4.5, 1.0, 1.0, 1.0)


def _cfg(**kw):
    kw.setdefault("surrogate_hyper", FAST_SURROGATE)
    return AttackConfig(**kw)


def test_score_flips_sign_cases():
    g = build_graph([(0, 1)], np.eye(3), [0, 1, 0], [True, False, False])
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = -3.0  # existing edge, negative gradient: deleting helps
    m[0, 2] = m[2, 0] = 2.0   # absent edge, positive gradient: adding helps
    ranked = score_flips(m, g)
    assert ranked[0] == (0, 1, 3.0)
    assert ranked[1] == (0, 2, 2.0)


def test_score_flips_zero_gradient_lexicographic():
    g = build_graph([], np.eye(4), [0, 1, 0, 1], [True, False, False, False])
    ranked = score_flips(np.zeros((4, 4)), g)
    assert [r[:2] for r in ranked] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all(r[2] == 0.0 for r in ranked)


def test_constraint_singleton_rule():
    # node 2 hangs off node 1 by a single edge
    g = build_graph([(0, 1), (1, 2)], np.eye(3), [0, 1, 0], [True, False, False])
    cfg = _cfg()
    assert constraint_check(g, 1, 2, cfg) == "singleton"
    assert constraint_check(g, 0, 2, cfg) is None  # addition never isolates
    relaxed = _cfg(constraints=AttackConstraints(forbid_singletons=False))
    assert constraint_check(g, 1, 2, relaxed) is None


@pytest.mark.parametrize("bad", [True, np.bool_(True), 1.5, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("side", ["i", "j"])
def test_constraint_check_rejects_an_id_that_is_not_an_integer(bad, side):
    g = build_graph([(0, 1), (1, 2)], np.eye(3), [0, 1, 0], [True, False, False])
    pair = (bad, 2) if side == "i" else (2, bad)
    with pytest.raises(ValueError, match=f"node id {side} must be an integer"):
        constraint_check(g, *pair, _cfg())
    assert constraint_check(g, np.int64(1), np.int32(2), _cfg()) == "singleton"


def test_constraint_degree_test_passthrough():
    g = sbm_graph((15, 15), 0.3, 0.05, seed=2)
    strict = _cfg(constraints=AttackConstraints(degree_test=True, degree_test_threshold=-1.0))
    loose = _cfg(constraints=AttackConstraints(degree_test=True, degree_test_threshold=1e9))
    off = _cfg(constraints=AttackConstraints(degree_test=False))
    i, j = 0, 20
    assert constraint_check(g, i, j, strict) == "degree_test"
    assert constraint_check(g, i, j, loose) is None
    assert constraint_check(g, i, j, off) is None


def test_degree_likelihood_ratio_identical_distributions():
    deg = np.array([2, 3, 4, 5, 6, 8, 2, 3])
    assert degree_likelihood_ratio(deg, deg) == pytest.approx(0.0, abs=1e-9)
    bumped = deg.copy()
    bumped[0] += 1
    assert degree_likelihood_ratio(deg, bumped) > 0.0


def _flipped(g, count, seed):
    """``g`` after ``count`` seeded random flips."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = flip_edge(g, *rng.choice(g.n_nodes, 2, replace=False).tolist())
    return g


def test_closed_form_statistic_matches_the_whole_sequence_ratio():
    """The degree test decides each flip from the tail sums and its two
    endpoints' degrees. Bracketing the oracle's statistic, recomputed from
    both whole degree sequences, by +-1e-9 flips the decision, so the two
    agree to 1e-9 absolute (the statistic is a difference of terms of about
    1e2 here, 1e4 on larger graphs), for every addition and deletion,
    including the degree moves 0<->1, 1<->2 and 2<->3 across the tail's edge."""
    reference = sbm_graph((30, 30), 0.06, 0.01, seed=5, connected=False)
    g = _flipped(reference, 10, seed=0)
    deg = g.degrees()
    stats = attack_module._tail_stats(reference.degrees()) + attack_module._tail_stats(deg)
    moves = set()
    for i, j in zip(*np.triu_indices(g.n_nodes, 1)):
        deleting = g.csr[i, j] == 1.0
        new = deg.copy()
        new[[i, j]] += -1.0 if deleting else 1.0
        ratio = degree_likelihood_ratio(reference.degrees(), new)
        for offset, code in ((-1e-9, 2), (1e-9, 0)):
            rules = AttackConstraints(forbid_singletons=False, degree_test=True, degree_test_threshold=ratio + offset)
            assert attack_module._reject_codes(deg[i], deg[j], deleting, rules, stats) == code
        moves |= {(int(d), int(d + (-1 if deleting else 1))) for d in deg[[i, j]]}
    assert {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)} <= moves


@pytest.mark.parametrize("threshold, flips", [(1e-4, 1), (5e-4, 5), (4e-3, 16)])
def test_degree_key_decisions_equal_constraint_check(three_chunk_sbm, threshold, flips):
    """The scan's decisions, per upper edge for deletions and on the grid of
    distinct degrees for additions, equal ``constraint_check`` pair by pair.
    Each threshold gets a graph far enough from the reference to both allow
    and reject."""
    reference = three_chunk_sbm
    g = _flipped(reference, flips, seed=1)
    cfg = _cfg(constraints=AttackConstraints(degree_test=True, degree_test_threshold=threshold))
    deg = g.degrees()
    stats = attack_module._tail_stats(reference.degrees()) + attack_module._tail_stats(deg)
    levels, cls = np.unique(deg, return_inverse=True)
    grid = attack_module._reject_codes(levels[:, None], levels, False, cfg.constraints, stats)
    iu, ju = np.triu(g.adjacency, 1).nonzero()
    on_edges = attack_module._reject_codes(deg[iu], deg[ju], True, cfg.constraints, stats)
    rng = np.random.default_rng(2)
    pairs = [sorted(rng.choice(g.n_nodes, 2, replace=False).tolist()) for _ in range(200)]
    pairs += [(iu[k], ju[k]) for k in rng.choice(iu.size, 100, replace=False)]
    reasons = (None,) + attack_module.REASONS
    decisions = []
    for i, j in pairs:
        if g.csr[i, j] == 1.0:
            code = on_edges[np.flatnonzero((iu == i) & (ju == j))[0]]
        else:
            code = grid[cls[i], cls[j]]
        decisions.append(reasons[code])
        assert decisions[-1] == constraint_check(g, i, j, cfg, reference=reference)
    assert None in decisions and "degree_test" in decisions


def test_meta_attack_budget_zero(medium_sbm):
    res = meta_attack(medium_sbm, _cfg(budget=0))
    assert res.flips == []
    assert count_flips(medium_sbm, res.poisoned) == 0
    expected = pseudo_labels(train_surrogate(medium_sbm, FAST_SURROGATE), medium_sbm)
    assert np.array_equal(res.pseudo_labels, expected)


def test_meta_attack_budget_exceeds_pairs():
    g = tiny_graph(n=5, seed=0)
    with pytest.raises(ValueError, match="budget"):
        meta_attack(g, _cfg(budget=11))


def test_meta_attack_respects_budget_and_invariants(medium_sbm):
    res = meta_attack(medium_sbm, _cfg(budget=15))
    a = res.poisoned.adjacency
    assert len(res.flips) <= 15
    assert count_flips(medium_sbm, res.poisoned) == len(res.flips)
    assert np.array_equal(a, a.T)
    assert not np.diagonal(a).any()
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert (a.sum(axis=1) > 0).all()  # no isolated nodes under the default rules
    # no pair flipped twice
    pairs = [(i, j) for i, j, _ in res.flips]
    assert len(pairs) == len(set(pairs))


def test_meta_attack_deterministic(medium_sbm):
    r1 = meta_attack(medium_sbm, _cfg(budget=8, seed=4))
    r2 = meta_attack(medium_sbm, _cfg(budget=8, seed=4))
    assert r1.flips == r2.flips
    assert np.array_equal(r1.poisoned.adjacency, r2.poisoned.adjacency)


def test_meta_attack_holds_two_chunks_of_scores():
    """The traced peak stays near the one reused CHUNK_ROWS x N score
    buffer (1.4 chunks here, with a block's temporaries and the surrogate
    refit beside it), well under one N x N array."""
    import tracemalloc

    g = sbm_graph((700, 700, 600), p_in=0.0075, p_out=0.00075, seed=0)
    n = g.n_nodes
    bound = 2 * CHUNK_ROWS * n * 8
    assert bound < 0.3 * n * n * 8
    tracemalloc.start()
    try:
        res = meta_attack(g, _cfg(budget=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.flips) == 4
    assert peak <= bound


def test_meta_attack_trace_is_monotone_and_complete(medium_sbm):
    res = meta_attack(medium_sbm, _cfg(budget=6))
    assert len(res.trace) == len(res.flips)
    for entry, flip in zip(res.trace, res.flips):
        assert tuple(entry["flip"][:2]) == flip[:2]
        assert entry["score"] > 0.0
        assert {"mean", "min", "max", "frac_negative"} <= set(entry["margins"])
        assert entry["candidates_checked"] == 1 + sum(entry["rejects"].values())
        assert entry["rejects"]["degree_test"] == 0  # the degree test is off by default


def test_meta_attack_chosen_score_dominates_feasible(medium_sbm):
    from graphpoison import pseudo_labels, train_surrogate

    cfg = _cfg(budget=1)
    res = meta_attack(medium_sbm, cfg)
    (i, j, _), entry = res.flips[0], res.trace[0]
    params = train_surrogate(medium_sbm, cfg.surrogate_hyper)
    labels = pseudo_labels(params, medium_sbm)
    grad = attack_gradient(medium_sbm, params, cfg.loss_spec, labels)
    for a, b, score in score_flips(grad, medium_sbm):
        if score <= entry["score"]:
            break  # ranked descending: everything after is dominated
        assert constraint_check(medium_sbm, a, b, cfg) is not None


def test_meta_attack_exhausts_instead_of_harmful_flips():
    # an unsatisfiable constraint leaves no allowed positive-score candidate
    g = sbm_graph((8, 8), 0.4, 0.1, seed=3)
    cfg = _cfg(
        budget=5,
        constraints=AttackConstraints(degree_test=True, degree_test_threshold=-1.0),
    )
    res = meta_attack(g, cfg)
    assert res.exhausted
    assert res.flips == []
    assert count_flips(g, res.poisoned) == 0


def test_ca_and_base_flip_sequences_match_with_unit_weights(medium_sbm):
    unit = CAWeightParams(1.0, 0.0, 1.0, 0.0)
    base_run = meta_attack(medium_sbm, _cfg(budget=10, loss_spec=LossSpec("nll")))
    ca_run = meta_attack(medium_sbm, _cfg(budget=10, loss_spec=LossSpec("nll", unit)))
    assert base_run.flips == ca_run.flips


# Flip lists recorded on the seeded 100-node SBM (``medium_sbm``) before the
# surrogate forward pass and the normalized adjacency were consolidated;
# they must never drift.
PINNED_META_FLIPS = {
    ("nll", False): [(39, 65, "add"), (39, 99, "add"), (28, 67, "add"), (39, 74, "add"),
                     (0, 97, "add"), (39, 98, "add"), (47, 67, "add"), (43, 52, "add")],
    ("nll", True): [(39, 97, "add"), (30, 97, "add"), (39, 65, "add"), (18, 97, "add"),
                    (39, 85, "add"), (0, 65, "add"), (46, 65, "add"), (39, 90, "add")],
    ("cw", False): [(39, 99, "add"), (39, 98, "add"), (0, 67, "add"), (39, 52, "add"),
                    (28, 74, "add"), (30, 99, "add"), (46, 67, "add"), (21, 51, "add")],
    ("cw", True): [(39, 97, "add"), (39, 65, "add"), (39, 85, "add"), (0, 65, "add"),
                   (28, 67, "add"), (30, 97, "add"), (39, 90, "add"), (39, 53, "add")],
}


@pytest.mark.parametrize("base, ca", sorted(PINNED_META_FLIPS))
def test_meta_attack_pinned_flip_lists(medium_sbm, base, ca):
    spec = LossSpec(base, CAWeightParams(4.5, 1.0, 1.0, 1.0) if ca else None)
    res = meta_attack(medium_sbm, _cfg(budget=8, loss_spec=spec))
    assert res.flips == PINNED_META_FLIPS[(base, ca)]


def test_meta_attack_matches_dense_greedy_oracle(three_chunk_sbm):
    """Flips, trace scores, rejects and exhaustion equal the dense loop's
    exactly, for every loss; the degree test rejects up to hundreds of pairs
    before a flip, and on the 16-node graph it forbids every positive-score
    pair after four flips, so the run exhausts mid-budget. The oracle refits
    in full at every step; the attack reuses its weights where a refit's
    labeled design is unchanged, and some of these runs do."""
    checked, kinds = [], []
    cases = [(three_chunk_sbm, spec, 1e-4, 5)
             for spec in (LossSpec("nll"), LossSpec("nll", CA), LossSpec("cw"), LossSpec("cw", CA))]
    cases.append((sbm_graph((8, 8), 0.4, 0.1, seed=2), LossSpec("cw"), 1e-3, 10))
    for g, spec, threshold, budget in cases:
        cfg = _cfg(
            budget=budget,
            loss_spec=spec,
            constraints=AttackConstraints(degree_test=True, degree_test_threshold=threshold),
        )
        res = meta_attack(g, cfg)
        flips, scores, rejects, exhausted = dense_greedy_attack(g, cfg)
        assert res.flips == flips
        assert [t["score"] for t in res.trace] == scores
        assert [t["rejects"] for t in res.trace] == rejects
        assert res.exhausted == exhausted
        checked += [t["candidates_checked"] for t in res.trace]
        kinds += [t["surrogate"] for t in res.trace]
    assert exhausted and 0 < len(flips) < budget  # the last case
    assert max(checked) > 32
    assert "reused" in kinds


def _tie_factors(g):
    """Integer factors (s = 0) for the cross-chunk tie: ``(us, vs, (a, b, c, d, x))``.

    The edge (c, d) scores 6 to delete, the non-edges (a, x) and (b, x) tie
    at 4 with a and b in different row chunks, and the other pairs score 0,
    0.5 or 1 (negated on edges).
    """
    n = g.n_nodes
    a, b, x = CHUNK_ROWS - 56, CHUNK_ROWS + 44, n - 100
    deg = g.degrees()
    c, d = next((i, j) for i, j in zip(*g.csr.nonzero()) if 2 * CHUNK_ROWS < i < j and min(deg[i], deg[j]) > 1)
    assert g.csr[a, x] == g.csr[b, x] == 0.0
    rng = np.random.default_rng(0)
    us, vs = np.zeros((3, n)), np.zeros((3, n))
    us[1], vs[1] = rng.integers(0, 2, n), rng.integers(0, 2, n)  # background scores 0, 0.5 or 1
    us[:, [a, b, c, d, x]] = vs[:, [a, b, c, d, x]] = 0.0
    us[0, [a, b]], vs[0, x] = 1.0, 8.0
    us[2, c], vs[2, d] = 1.0, -12.0
    return us, vs, (a, b, c, d, x)


def test_meta_attack_breaks_a_cross_chunk_tie_by_row_major_order(three_chunk_sbm, monkeypatch):
    """Integer factors make every score exact. The existing edge (c, d) has
    gradient -6, so deleting it scores 6; pairs (a, x) and (b, x) tie at 4
    with a and b in different row chunks; a flat 1.0 background ties far
    past the candidate cut-off in every chunk, and zero scores never flip."""
    import graphpoison.gradients as gradients_module

    g = three_chunk_sbm
    n = g.n_nodes
    us, vs, (a, b, c, d, x) = _tie_factors(g)
    real = gradients_module.attack_factors

    def crafted(*args):
        *_, info = real(*args)
        return us, vs, np.zeros(n), info

    monkeypatch.setattr(gradients_module, "attack_factors", crafted)
    monkeypatch.setattr(attack_module, "attack_factors", crafted)
    cfg = _cfg(budget=10)
    res = meta_attack(g, cfg)
    assert res.flips[:3] == [(c, d, "delete"), (a, x, "add"), (b, x, "add")]
    assert [t["score"] for t in res.trace] == [6.0, 4.0, 4.0] + [1.0] * 7
    flips, scores, _, exhausted = dense_greedy_attack(g, cfg)
    assert (res.flips, [t["score"] for t in res.trace], res.exhausted) == (flips, scores, exhausted)

    us[1] = vs[1] = 0.0  # without the background only zero scores follow: the loop must stop
    res = meta_attack(g, cfg)
    assert res.flips == flips[:3]
    assert res.exhausted


def _scan_fixture(g):
    """``g`` after four flips (two deletions, two additions) and the flipped pairs."""
    rng = np.random.default_rng(0)
    iu, ju = np.triu(g.adjacency, 1).nonzero()
    flipped = [(int(iu[k]), int(ju[k])) for k in rng.choice(iu.size, 2, replace=False)]
    while len(flipped) < 4:
        i, j = sorted(rng.choice(g.n_nodes, 2, replace=False).tolist())
        if g.csr[i, j] == 0.0:
            flipped.append((i, j))
    current = g
    for i, j in flipped:
        current = flip_edge(current, i, j)
    return current, flipped


def _scan(current, reference, factors, cfg, excluded):
    """``_top_pairs`` on ``current`` with the reference graph's tail sums."""
    ref = attack_module._tail_stats(reference.degrees())
    buffer = np.empty(CHUNK_ROWS * current.n_nodes)
    return attack_module._top_pairs(*factors, current, excluded, buffer, cfg.constraints, ref)


@pytest.mark.parametrize("threshold", [None, 1e-5, 1e-4])
def test_top_pairs_best_allowed_pair_and_rejects_equal_the_dense_ranking(three_chunk_sbm, threshold):
    """One scan gives the dense ranking's first allowed pair and the rejects
    ahead of it, with and without excluded pairs; the degree test's
    thresholds forbid additions, so the scan gathers the degree-key mask."""
    g = three_chunk_sbm
    test = threshold is not None
    cfg = _cfg(constraints=AttackConstraints(degree_test=test, degree_test_threshold=threshold or 0.004))
    params = train_surrogate(g, FAST_SURROGATE)
    current, flipped = _scan_fixture(g)
    gradient = attack_factors(g, params, LossSpec("cw", CA), pseudo_labels(params, g))[:3]
    us, vs, _ = _tie_factors(g)
    for factors in (gradient, (us, vs, np.zeros(g.n_nodes))):
        grad = assembled_scores(*factors)
        found = _scan(current, g, factors, cfg, [])
        assert found == dense_best_pair(grad, current, [], cfg, g) and found[0] is not None
        if test and factors is gradient:
            assert found[1]["degree_test"] > 0
        # the flipped pairs, the chosen pair and two forbidden pairs scored ahead of it
        ahead = [(i, j) for i, j, _ in score_flips(grad, current)[:50]]
        forbidden = [p for p in ahead if constraint_check(current, *p, cfg, reference=g) is not None]
        excluded = flipped + [found[0][1:]] + forbidden[:2]
        found = _scan(current, g, factors, cfg, excluded)
        assert found == dense_best_pair(grad, current, excluded, cfg, g) and found[0] is not None


@pytest.mark.parametrize("threshold", [5e-6, 1e-5, 2e-5])
def test_top_pairs_counts_tied_rejects_by_row_major_order(three_chunk_sbm, threshold):
    """Every pair of nodes >= 300 scores 1, a tie across the second and third
    row chunks: only the forbidden pairs before the flip in row-major order
    are rejects, however many tie with it after."""
    g = three_chunk_sbm
    n = g.n_nodes
    us, vs = np.zeros((1, n)), np.zeros((1, n))
    us[0, 300:] = vs[0, 300:] = 1.0
    factors = (us, vs, np.zeros(n))
    cfg = _cfg(constraints=AttackConstraints(degree_test=True, degree_test_threshold=threshold))
    found = _scan(g, g, factors, cfg, [])
    assert found == dense_best_pair(assembled_scores(*factors), g, [], cfg, g) and found[0][0] == 1.0


def test_top_pairs_rejects_every_positive_pair_when_every_flip_is_forbidden(three_chunk_sbm):
    """With every flip forbidden no pair is chosen, and every positive-score
    pair outside the excluded ones is rejected: by the singleton rule if it
    is an edge at a degree-1 node, else by the degree test."""
    g = three_chunk_sbm
    cfg = _cfg(constraints=AttackConstraints(degree_test=True, degree_test_threshold=-1.0))
    params = train_surrogate(g, FAST_SURROGATE)
    us, vs, s = attack_factors(g, params, LossSpec("nll", CA), pseudo_labels(params, g))[:3]
    current, flipped = _scan_fixture(g)
    a = current.adjacency
    deg = a.sum(axis=1)
    lonely = (a == 1.0) & (np.minimum.outer(deg, deg) <= 1.0)
    singletons = 0
    for factors in ((us, vs, s), (-us, vs, -s)):  # the second negates every score
        for excluded in ([], flipped):
            scores = assembled_scores(*factors) * (1.0 - 2.0 * a)
            scores[np.tril_indices(g.n_nodes)] = -np.inf
            scores[tuple(np.array(excluded, dtype=int).reshape(-1, 2).T)] = -np.inf
            positive = scores > 0.0
            expected = {"singleton": int((positive & lonely).sum()), "degree_test": int((positive & ~lonely).sum())}
            assert _scan(current, g, factors, cfg, excluded) == (None, expected)
            singletons += expected["singleton"]
    assert singletons > 0


def _float64_blocks(monkeypatch):
    """Spy on the scan's blocks: the list collects one entry per float64 block computed."""
    blocks, real = [], attack_module.upper_block

    def spy(left, right, r0, buffer):
        if left.dtype == np.float64:
            blocks.append(r0)
        return real(left, right, r0, buffer)

    monkeypatch.setattr(attack_module, "upper_block", spy)
    return blocks


def _heavy_reject_case():
    """The graph and config of ``test_a_heavily_rejecting_scan_holds_few_chunks_of_rejects``."""
    g = sbm_graph((700, 700, 600), p_in=0.0075, p_out=0.00075, seed=0)
    cfg = AttackConfig(
        budget=8, loss_spec=LossSpec("cw"), constraints=AttackConstraints(degree_test=True, degree_test_threshold=1e-5)
    )
    return g, cfg


def test_recomputing_every_block_in_float64_changes_no_flip_score_or_reject(medium_sbm, monkeypatch):
    """With an infinite float32 margin pass 2 recomputes every block; the
    flips, scores and rejects are those of the pruned scan, on the pinned
    configs and on a scan that rejects over 470k pairs a step."""
    import graphpoison.gradients as gradients_module

    runs = [(medium_sbm, _cfg(budget=8, loss_spec=LossSpec(base, CA if ca else None)))
            for base, ca in sorted(PINNED_META_FLIPS)]
    runs.append(_heavy_reject_case())
    blocks = _float64_blocks(monkeypatch)

    def run(g, cfg):
        blocks.clear()
        trace = meta_attack(g, cfg).trace
        return [(t["flip"], t["score"], t["rejects"]) for t in trace], len(blocks)

    pruned = [run(g, cfg) for g, cfg in runs]
    monkeypatch.setattr(gradients_module, "_margin", lambda *args: np.inf)
    for (g, cfg), (steps, pruned_blocks) in zip(runs, pruned):
        assert run(g, cfg) == (steps, len(steps) * -(-g.n_nodes // CHUNK_ROWS))
    assert max(rejects["degree_test"] for *_, rejects in steps) > 470_000
    assert pruned_blocks < len(steps) * -(-g.n_nodes // CHUNK_ROWS)  # even there, some block is never recomputed


def _near_tie_factors(g, q):
    """Factors (s = 0) under which the non-edge (a, x), a in the second row chunk,
    scores ``m * m`` and the non-edge (b, y), b in the first, scores ``q``; every
    other pair scores 0. In float32 (a, x) scores ``m32 * m32 = 1 + 2**-22``."""
    n, m = g.n_nodes, 1.0 + 2.0**-24 + 2.0**-26
    a, b, x, y = CHUNK_ROWS + 10, 10, n - 2, n - 1
    assert g.csr[a, x] == g.csr[b, y] == 0.0
    us, vs = np.zeros((2, n)), np.zeros((2, n))
    us[0, a], vs[0, x] = m, 2.0 * m
    us[1, b], vs[1, y] = q, 2.0
    return (us, vs, np.zeros(n)), m * m, (a, x), (b, y)


@pytest.mark.parametrize("offset", [0.0, 2.0**-50, -(2.0**-50)])
def test_top_pairs_ranks_pairs_float32_cannot_tell_apart(three_chunk_sbm, offset):
    """(a, x) in the second row chunk scores ``m**2`` and (b, y) in the first
    ``m**2 + offset``. Both round to about 1 + 2**-23 in float32, but the second
    chunk's float32 max is the larger, so pass 2 visits it first: the float64
    scores decide, and an exact tie goes to (b, y), the smaller row-major index."""
    g = three_chunk_sbm
    factors, square, p, q = _near_tie_factors(g, (1.0 + 2.0**-24 + 2.0**-26) ** 2 + offset)
    m32 = np.float32(1.0 + 2.0**-24 + 2.0**-26)
    assert m32 * m32 > np.float32(square)  # the premise: float32 ranks (a, x) first
    cfg = _cfg()
    found = _scan(g, g, factors, cfg, [])
    assert found == dense_best_pair(assembled_scores(*factors), g, [], cfg, g)
    assert found[0] == ((square, *p) if offset < 0 else (square + offset, *q))


def test_top_pairs_rescales_factors_whose_products_overflow_float32(three_chunk_sbm):
    """Factors near 1e25 (and degree terms near 1e50) score pairs far beyond the
    float32 range; after the power-of-two rescale the scan still equals the
    dense ranking, rejects included."""
    g = three_chunk_sbm
    rng = np.random.default_rng(3)
    n = g.n_nodes
    factors = (1e25 * rng.normal(size=(4, n)), 1e25 * rng.normal(size=(4, n)), 1e50 * rng.normal(size=n))
    grad = assembled_scores(*factors)
    assert np.abs(grad).max() > np.finfo(np.float32).max
    for threshold in (None, 1e-4):
        cfg = _cfg(constraints=AttackConstraints(degree_test=threshold is not None, degree_test_threshold=threshold or 0.004))
        found = _scan(g, g, factors, cfg, [])
        assert found == dense_best_pair(grad, g, [], cfg, g) and found[0] is not None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 2 * CHUNK_ROWS + 40),
    depth=st.integers(1, 7),
    scales=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    spread=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_block_maxima_lie_within_the_margin_of_float64(n, depth, scales, spread, seed):
    """Over factors at scales 1e-30 to 1e30, with entries spread over up to
    1e+-20 (float32 underflow included), every float32 block entry and block
    max lies within E of the float64 one, in the rescaled units."""
    from graphpoison.gradients import float32_factors, score_factors, upper_block

    rng = np.random.default_rng(seed)
    us, vs = (10.0 ** scales[0] * rng.normal(size=(depth, n)) * 10.0 ** rng.uniform(-spread, spread, (depth, n))
              for _ in range(2))
    s = 10.0 ** scales[1] * rng.normal(size=n)
    left, right = score_factors(us, vs, s)
    left32, right32, shift, margin = float32_factors(left, right)
    buffer = np.empty(CHUNK_ROWS * n)
    for r0 in range(0, n, CHUNK_ROWS):
        exact = np.ldexp(upper_block(left, right, r0, buffer)[1], shift)
        rounded = upper_block(left32, right32, r0, buffer)[1].astype(np.float64)
        assert np.isfinite(rounded).all()
        assert np.abs(rounded - exact).max() <= margin
        assert abs(rounded.max() - exact.max()) <= margin


def _record_graphs(monkeypatch, name, graph_arg):
    """Wrap ``graphpoison.attack.<name>``; the list collects the graph of each call."""
    graphs = []
    real = getattr(attack_module, name)

    def wrapped(*args, **kwargs):
        graphs.append(args[graph_arg])
        return real(*args, **kwargs)

    monkeypatch.setattr(attack_module, name, wrapped)
    return graphs


def _count_normalizations(monkeypatch) -> list:
    """Wrap ``normalize_adjacency`` under every graphpoison module name that holds it; the list collects each call."""
    calls = []
    real = graphpoison.normalize_adjacency
    for info in pkgutil.iter_modules(graphpoison.__path__):
        module = importlib.import_module(f"graphpoison.{info.name}")
        if getattr(module, "normalize_adjacency", None) is real:
            monkeypatch.setattr(module, "normalize_adjacency", lambda a: calls.append(a) or real(a))
    return calls


@pytest.mark.parametrize("retrain_every", [1, 2])
@pytest.mark.parametrize("refresh", [False, True])
def test_meta_attack_and_evaluate_derive_one_ahat_per_graph(monkeypatch, retrain_every, refresh):
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)  # a fresh graph: no Ahat derived yet
    calls = _count_normalizations(monkeypatch)
    budget = 4
    result = meta_attack(g, _cfg(budget=budget, retrain_every=retrain_every, refresh_pseudo_labels=refresh))
    assert len(result.flips) == budget
    assert len(calls) == budget + 1  # the clean graph and each flipped one
    evaluate(g, result.poisoned, VictimHyper(epochs=5), seeds=(0, 1, 2))
    assert len(calls) == budget + 1  # every victim seed reuses the poisoned graph's


def test_dice_attack_and_evaluate_derive_two_ahats(monkeypatch):
    g = sbm_graph((20, 20), 0.2, 0.02, seed=1)
    calls = _count_normalizations(monkeypatch)
    result = dice_attack(g, _cfg(budget=4))
    assert len(result.flips) == 4
    evaluate(g, result.poisoned, VictimHyper(epochs=5), seeds=(0, 1, 2))
    assert len(calls) == 2  # the clean graph's for the surrogate, the poisoned one's for the victims


def test_retrain_every_controls_surrogate_refresh(medium_sbm, monkeypatch):
    fits = _record_graphs(monkeypatch, "train_surrogate", 0)
    labelings = _record_graphs(monkeypatch, "pseudo_labels", 1)
    for refresh in (False, True):
        fits.clear()
        labelings.clear()
        r1 = meta_attack(medium_sbm, _cfg(budget=6, retrain_every=3, refresh_pseudo_labels=refresh))
        assert len(r1.flips) == 6  # the schedule must not break the loop
        # fits at steps 0 and 3, on the clean graph and after three flips
        assert [count_flips(medium_sbm, g) for g in fits] == [0, 3]
        # pseudo-labels come from the clean graph, or from every fit when refreshed
        assert [count_flips(medium_sbm, g) for g in labelings] == ([0, 3] if refresh else [0])

        fits.clear()
        labelings.clear()
        meta_attack(medium_sbm, _cfg(budget=0, refresh_pseudo_labels=refresh))
        assert len(fits) == len(labelings) == 1


@pytest.mark.parametrize("retrain_every", [1, 3])
def test_each_trace_entry_says_where_its_surrogate_came_from(three_chunk_sbm, retrain_every):
    res = meta_attack(three_chunk_sbm, _cfg(budget=7, retrain_every=retrain_every))
    assert len(res.flips) == 7
    fitted_on = current = three_chunk_sbm
    expected = []
    for step, (i, j, _) in enumerate(res.flips):
        if step == 0:
            expected.append("fit")
        elif step % retrain_every:
            expected.append("held")
        else:  # reused exactly when the labeled design is the one of the last fit
            same = _labeled_design(current).tobytes() == _labeled_design(fitted_on).tobytes()
            expected.append("reused" if same else "fit")
            fitted_on = current
        current = flip_edge(current, i, j)
    assert [t["surrogate"] for t in res.trace] == expected
    if retrain_every == 1:
        assert "reused" in expected  # the first flip lies away from every labeled node


def _mechanism_fixture():
    return sbm_graph((40, 40), 0.15, 0.03, feature_noise=1.5, seed=9)


def _ca_cfg(**kw):
    return _cfg(
        budget=25,
        loss_spec=LossSpec("nll", CAWeightParams(4.5, 1.0, 1.0, 1.0)),
        surrogate_hyper=SurrogateHyper(),
        **kw,
    )


def test_refreshed_pseudo_labels_keep_margins_nonnegative():
    # pseudo-label = argmax right after every retrain, so no unlabeled node
    # can be misclassified against it when retraining happens every step
    res = meta_attack(_mechanism_fixture(), _ca_cfg(retrain_every=1, refresh_pseudo_labels=True))
    assert all(t["margins"]["frac_negative"] == 0.0 for t in res.trace)


def test_negative_margins_engage_between_retrains():
    res = meta_attack(_mechanism_fixture(), _ca_cfg(retrain_every=5, refresh_pseudo_labels=True))
    assert max(t["margins"]["frac_negative"] for t in res.trace) > 0.0


def test_fixed_pseudo_labels_allow_negative_margins():
    g = _mechanism_fixture()
    res = meta_attack(g, _ca_cfg())  # fixed initial labels are the default
    assert max(t["margins"]["frac_negative"] for t in res.trace) > 0.0
    # the targets are the clean-graph self-training labels, held for the run
    from graphpoison import pseudo_labels, train_surrogate

    initial = pseudo_labels(train_surrogate(g, SurrogateHyper()), g)
    assert np.array_equal(res.pseudo_labels, initial)


def test_greedy_flips_ascend_the_true_objective():
    """Each chosen flip must raise the actual (not just linearized) objective."""
    g = sbm_graph((30, 30), 0.2, 0.03, feature_noise=1.2, seed=0)
    for base in ("nll", "cw"):
        res = meta_attack(g, AttackConfig(budget=15, loss_spec=LossSpec(base)))
        assert all(t["objective_after"] > t["objective_before"] for t in res.trace)


def test_degree_test_hook_restricts_flips():
    g = sbm_graph((25, 25), 0.25, 0.03, seed=12)
    free = meta_attack(g, _cfg(budget=10))
    guarded = meta_attack(
        g,
        _cfg(budget=10, constraints=AttackConstraints(degree_test=True, degree_test_threshold=1e-7)),
    )
    assert len(free.flips) == 10
    assert len(guarded.flips) < len(free.flips)  # tight threshold must bite


PREFIX_CASES = {
    "meta-degree-test": (meta_attack, dict(
        loss_spec=LossSpec("cw", CA),
        constraints=AttackConstraints(degree_test=True, degree_test_threshold=5e-4))),
    "meta-retrain-every-2": (meta_attack, dict(loss_spec=LossSpec("nll", CA), retrain_every=2)),
    "meta-refresh-pseudo-labels": (meta_attack, dict(
        loss_spec=LossSpec("nll", CA), retrain_every=2, refresh_pseudo_labels=True)),
    "dice": (dice_attack, dict(seed=3)),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_an_attack_at_a_smaller_budget_is_a_prefix_of_a_larger_one(case):
    # the budget is only the loop bound, so one run serves every smaller budget
    attack, kw = PREFIX_CASES[case]
    g = sbm_graph((60, 60, 60), 0.08, 0.01, seed=4)
    small, large = (attack(g, _cfg(budget=b, **kw)) for b in (8, 20))
    assert len(small.flips) == 8 and len(large.flips) == 20
    assert small.flips == large.flips[:8] and small.trace == large.trace[:8]
    if case == "meta-degree-test":  # the test rejects candidates within the prefix
        assert sum(t["rejects"]["degree_test"] for t in small.trace) > 0


def test_dice_budget_zero(medium_sbm):
    res = dice_attack(medium_sbm, _cfg(budget=0))
    assert res.flips == []
    assert count_flips(medium_sbm, res.poisoned) == 0


def test_dice_label_consistency(medium_sbm):
    res = dice_attack(medium_sbm, _cfg(budget=25, seed=11))
    assert len(res.flips) == 25
    for i, j, op in res.flips:
        same = res.pseudo_labels[i] == res.pseudo_labels[j]
        if op == "delete":
            assert same
        else:
            assert op == "add" and not same


def test_dice_deterministic(medium_sbm):
    r1 = dice_attack(medium_sbm, _cfg(budget=10, seed=5))
    r2 = dice_attack(medium_sbm, _cfg(budget=10, seed=5))
    assert r1.flips == r2.flips


def test_dice_pinned_flip_list(medium_sbm):
    # recorded while DICE still rebuilt its within-class edge list per draw
    res = dice_attack(medium_sbm, _cfg(budget=12, seed=11))
    assert res.flips == [
        (49, 79, "add"), (60, 84, "delete"), (7, 43, "delete"), (73, 87, "delete"),
        (22, 26, "delete"), (91, 97, "delete"), (65, 78, "delete"), (80, 82, "delete"),
        (68, 69, "delete"), (7, 47, "delete"), (11, 48, "delete"), (35, 98, "add"),
    ]


def test_dice_retry_exhaustion_stops_exhausted():
    # with all-same pseudo-labels there is no cross-class pair to add
    g = build_graph([(0, 1)], np.eye(3, 2), [0, 0, 0], [True, True, False], n_classes=2)
    res = dice_attack(g, _cfg(budget=2, dice_add_prob=1.0))
    assert res.exhausted and res.flips == [] and res.trace == []
    assert count_flips(g, res.poisoned) == 0

    # deleting from a 4-cycle: after the first deletion only the opposite
    # edge keeps both endpoints above degree 1, and after it the singleton
    # rule blocks the two edges left
    cycle = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], np.eye(4, 2), [0] * 4, [True] * 3 + [False], 2)
    res = dice_attack(cycle, _cfg(budget=3, dice_add_prob=0.0))
    assert res.exhausted and len(res.flips) == 2 and len(res.trace) == 2
    assert {op for _, _, op in res.flips} == {"delete"}
    (i, j, _), (k, m, _) = res.flips
    assert {i, j, k, m} == {0, 1, 2, 3}  # opposite edges
    assert count_flips(cycle, res.poisoned) == 2 and res.poisoned.n_edges == 2


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(budget=-1)
    with pytest.raises(ValueError):
        AttackConfig(retrain_every=0)
    with pytest.raises(ValueError):
        AttackConfig(dice_add_prob=1.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: AttackConfig(budget=7, retrain_every=1.5),
        lambda: AttackConfig(budget=True),
        lambda: AttackConfig(budget=2.5),
        lambda: AttackConfig(seed=1.5),
        lambda: AttackConstraints(degree_test=True, degree_test_threshold=float("nan")),
        lambda: AttackConstraints(degree_test=True, degree_test_threshold=float("inf")),
    ],
    ids=["retrain-every-float", "budget-bool", "budget-float", "seed-float", "threshold-nan", "threshold-inf"],
)
def test_attack_config_rejects_non_integer_counts_and_non_finite_threshold(make):
    with pytest.raises(ValueError, match="integer|finite"):
        make()
    assert AttackConfig(budget=np.int64(3), seed=np.int32(1)).budget == 3


SWITCHES = [
    lambda v: AttackConstraints(forbid_singletons=v),
    lambda v: AttackConstraints(degree_test=v),
    lambda v: AttackConfig(refresh_pseudo_labels=v),
]
SWITCH_IDS = ["forbid-singletons", "degree-test", "refresh-pseudo-labels"]


@pytest.mark.parametrize("make", SWITCHES, ids=SWITCH_IDS)
@pytest.mark.parametrize("value", ["false", "no", 0, 1])
def test_switches_reject_values_that_are_not_bools(make, value):
    # 'false' is truthy: taken as a switch it would turn the rule on
    with pytest.raises(ValueError, match="must be a bool"):
        make(value)


@pytest.mark.parametrize("make", SWITCHES, ids=SWITCH_IDS)
def test_switches_accept_python_and_numpy_bools(make):
    for value in (True, False, np.bool_(True), np.bool_(False)):
        make(value)


@pytest.mark.parametrize("i, j", [(-1, 3), (3, -1), (20, 3), (3, 20), (5, 5)])
def test_constraint_check_rejects_pairs_flip_edge_rejects(i, j):
    # a negative id would otherwise index from the end: (-1, 3) checked pair (19, 3)
    g = sbm_graph((10, 10), 0.3, 0.05, seed=1)
    with pytest.raises(ValueError, match="out of range|self-loop"):
        constraint_check(g, i, j, _cfg())
    with pytest.raises(ValueError, match="out of range|self-loop"):
        flip_edge(g, i, j)


def test_a_heavily_rejecting_scan_holds_few_chunks_of_rejects():
    """With the degree test at 1e-5 most steps reject over 470k pairs ahead
    of their flip; the scan keeps 17 bytes per forbidden pair above the
    running best and counts them part by part, not in one concatenated copy."""
    import tracemalloc

    g = sbm_graph((700, 700, 600), p_in=0.0075, p_out=0.00075, seed=0)
    cfg = AttackConfig(
        budget=8, loss_spec=LossSpec("cw"), constraints=AttackConstraints(degree_test=True, degree_test_threshold=1e-5)
    )
    tracemalloc.start()
    try:
        res = meta_attack(g, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.flips) == 8
    assert max(entry["rejects"]["degree_test"] for entry in res.trace) > 470_000
    assert peak <= 5 * CHUNK_ROWS * g.n_nodes * 8
