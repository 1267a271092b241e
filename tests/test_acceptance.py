"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion. Criteria 5-7 exercise the real Cora citation graph and skip,
with instructions, until the dataset is staged locally (see README
"Datasets"); everything else is self-contained.
"""

import json

import numpy as np
import pytest

from graphpoison import (
    AttackConfig,
    AttackConstraints,
    CAWeightParams,
    ExperimentConfig,
    LossSpec,
    SurrogateHyper,
    VictimHyper,
    count_flips,
    dice_attack,
    evaluate,
    finite_difference_gradient,
    load_dataset,
    margin_gradient_scatter,
    meta_attack,
    pseudo_labels,
    run_experiment,
    sbm_graph,
    train_surrogate,
    train_victim,
)
from graphpoison.losses import resolve_weights
from graphpoison.graph import normalize_adjacency
from graphpoison.models import forward_logits, margins

from .conftest import CORA_DIR, requires_cora, tiny_graph, write_plain_dataset
from .oracles import attack_gradient, node_gradient

CORA_PARAMS = CAWeightParams(alpha1=4.5, beta1=1.0, alpha2=1.0, beta2=1.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


def test_criterion_1_reduction_identity():
    """Unit CA weights reproduce the base loss, gradient, and flip sequence."""
    g = sbm_graph((50, 50), 0.2, 0.01, seed=0)
    unit = CAWeightParams(1.0, 0.0, 1.0, 0.0)
    budget = int(0.10 * g.n_edges)

    params = train_surrogate(g)
    labels = pseudo_labels(params, g)
    from graphpoison.losses import loss_value

    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    ok = True
    for base in ("nll", "cw"):
        spec_ca = LossSpec(base, unit)
        spec_b = LossSpec(base)
        v_ca, _ = loss_value(logits, labels, g.unlabeled_mask, spec_ca)
        v_b, _ = loss_value(logits, labels, g.unlabeled_mask, spec_b)
        assert abs(v_ca - v_b) <= 1e-12 * abs(v_b)

        m_ca = attack_gradient(g, params, spec_ca, labels)
        m_b = attack_gradient(g, params, spec_b, labels)
        assert np.abs(m_ca - m_b).max() <= 1e-12 * np.abs(m_b).max()

        r_ca = meta_attack(g, AttackConfig(budget=budget, loss_spec=spec_ca))
        r_b = meta_attack(g, AttackConfig(budget=budget, loss_spec=spec_b))
        assert r_ca.flips == r_b.flips
    _report("1 reduction-identity", ok)


def test_criterion_2_gradient_oracle():
    """Analytic vs central differences: < 1e-4 relative, all losses, 5 graphs."""
    specs = [
        LossSpec("nll"),
        LossSpec("cw", cw_kappa=1.0),
        LossSpec("nll", CORA_PARAMS),
        LossSpec("cw", CORA_PARAMS, cw_kappa=1.0),
    ]
    worst = 0.0
    for seed in (11, 23, 37, 41, 59):
        g = tiny_graph(n=8, seed=seed, n_labeled=3)
        params = train_surrogate(g, SurrogateHyper(epochs=80))
        labels = pseudo_labels(params, g)
        for spec in specs:
            analytic = attack_gradient(g, params, spec, labels)
            fd = finite_difference_gradient(g, params, spec, labels, h=1e-5)
            rel = np.abs(analytic - fd).max() / np.abs(fd).max()
            worst = max(worst, rel)
            assert rel < 1e-4, (seed, spec, rel)
    _report("2 gradient-oracle", True, f"max rel err {worst:.2e}")


def test_criterion_3_ca_scaling_identity():
    """Per-node CA gradients equal w(v) times base gradients, entrywise."""
    g = sbm_graph((15, 15), 0.3, 0.03, seed=6)
    params = train_surrogate(g)
    labels = pseudo_labels(params, g)
    spec_ca = LossSpec("nll", CORA_PARAMS)

    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    weights = resolve_weights(margins(logits, labels), spec_ca)
    for v in np.flatnonzero(g.unlabeled_mask):
        base_mat = node_gradient(g, params, LossSpec("nll"), labels, v)
        ca_mat = node_gradient(g, params, spec_ca, labels, v)
        scale = max(np.abs(ca_mat).max(), 1e-30)
        assert np.abs(ca_mat - weights[v] * base_mat).max() <= 1e-10 * scale
        assert np.linalg.norm(ca_mat) == pytest.approx(
            weights[v] * np.linalg.norm(base_mat), rel=1e-9, abs=1e-12
        )
    _report("3 ca-scaling-identity", True)


def test_criterion_4_budget_and_constraint_invariants():
    """50 randomized configs: budget, symmetry, diagonal, singleton, DICE rules."""
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n_per = int(rng.integers(15, 26))
        g = sbm_graph(
            (n_per, n_per),
            p_in=float(rng.uniform(0.2, 0.4)),
            p_out=float(rng.uniform(0.02, 0.08)),
            feature_noise=float(rng.uniform(0.3, 1.5)),
            seed=int(rng.integers(10_000)),
        )
        use_dice = trial % 2 == 1
        forbid = bool(rng.integers(2)) or use_dice  # DICE trials always assert it
        base = "cw" if rng.integers(2) else "nll"
        ca = bool(rng.integers(2))
        spec = LossSpec(
            base,
            CAWeightParams(float(rng.uniform(0.5, 5)), float(rng.uniform(0, 2)),
                           float(rng.uniform(0.5, 5)), float(rng.uniform(0, 2))) if ca else None,
        )
        budget = int(rng.integers(0, 13))
        cfg = AttackConfig(
            budget=budget,
            loss_spec=spec,
            retrain_every=int(rng.integers(1, 4)),
            surrogate_hyper=SurrogateHyper(epochs=int(rng.integers(30, 61)), seed=int(rng.integers(100))),
            constraints=AttackConstraints(forbid_singletons=forbid),
            seed=int(rng.integers(10_000)),
        )
        result = (dice_attack if use_dice else meta_attack)(g, cfg)

        a = result.poisoned.adjacency
        assert len(result.flips) <= budget
        assert count_flips(g, result.poisoned) == len(result.flips)
        assert np.array_equal(a, a.T)
        assert not np.diagonal(a).any()
        assert set(np.unique(a)) <= {0.0, 1.0}
        if forbid:
            assert (a.sum(axis=1) > 0).all()
        if use_dice:
            for i, j, op in result.flips:
                same = result.pseudo_labels[i] == result.pseudo_labels[j]
                assert (op == "delete") == same
    _report("4 budget-and-constraints", True)


@requires_cora
def test_criterion_5_clean_cora_accuracy():
    """Victim GCN on clean Cora, 10 seeds: mean accuracy >= 80%."""
    g = load_dataset(CORA_DIR, split_fraction=0.10, split_seed=0)
    assert g.n_nodes == 2485 and g.n_edges == 5069, "expected the Cora LCC"
    assert g.n_classes == 7 and g.features.shape[1] == 1433
    report = evaluate(g, g, VictimHyper(), seeds=range(10))
    _report("5 clean-cora-accuracy", report.mean >= 0.80,
            f"mean {report.mean:.4f} +- {report.ci95_halfwidth:.4f}")
    assert report.mean >= 0.80


@requires_cora
def test_criterion_6_attack_trend_reproduction():
    """Cora, 5% budget: CA-CE beats CE by >= 3 points, CE beats DICE, all beat clean."""
    g = load_dataset(CORA_DIR, split_fraction=0.10, split_seed=0)
    budget = int(np.floor(0.05 * g.n_edges))
    seeds = range(10)

    clean = evaluate(g, g, VictimHyper(), seeds=seeds).mean

    ce_cfg = AttackConfig(budget=budget, loss_spec=LossSpec("nll"))
    ce_graph = meta_attack(g, ce_cfg).poisoned
    ce = evaluate(g, ce_graph, VictimHyper(), seeds=seeds).mean

    ca_cfg = AttackConfig(budget=budget, loss_spec=LossSpec("nll", CORA_PARAMS))
    ca_graph = meta_attack(g, ca_cfg).poisoned
    ca = evaluate(g, ca_graph, VictimHyper(), seeds=seeds).mean

    dice_cfg = AttackConfig(budget=budget)
    dice_graph = dice_attack(g, dice_cfg).poisoned
    dice = evaluate(g, dice_graph, VictimHyper(), seeds=seeds).mean

    detail = f"clean {clean:.4f} dice {dice:.4f} ce {ce:.4f} ca-ce {ca:.4f}"
    ok = (ca <= ce - 0.03) and (ce < dice) and (ce <= clean - 0.02) and (ca <= clean - 0.02)
    _report("6 attack-trends", ok, detail)
    assert ca <= ce - 0.03, detail
    assert ce < dice, detail
    assert ce <= clean - 0.02 and ca <= clean - 0.02, detail


@requires_cora
def test_criterion_7_margin_gradient_ordering():
    """CA puts less gradient mass on misclassified nodes than on nearly-flipped ones."""
    g = load_dataset(CORA_DIR, split_fraction=0.10, split_seed=0)

    def split_means(spec):
        rows = margin_gradient_scatter(g, spec)
        phi = np.array([r[1] for r in rows])
        norm = np.array([r[2] for r in rows])
        return norm[phi < -0.1].mean(), norm[(phi > 0) & (phi < 0.3)].mean()

    ca_neg, ca_pos = split_means(LossSpec("nll", CORA_PARAMS))
    nll_neg, nll_pos = split_means(LossSpec("nll"))
    ok = (ca_neg < ca_pos) and not (nll_neg < nll_pos)
    _report("7 margin-gradient-ordering", ok,
            f"ca {ca_neg:.4f}<{ca_pos:.4f}, nll {nll_neg:.4f} vs {nll_pos:.4f}")
    assert ca_neg < ca_pos
    assert not nll_neg < nll_pos


def test_criterion_8_determinism(tmp_path):
    """Identical config yields byte-identical flips and report, modulo wall clock."""
    g = sbm_graph((30, 30), 0.25, 0.02, seed=4)
    d = write_plain_dataset(g, tmp_path / "ds")
    cfg = ExperimentConfig(
        dataset=d,
        budget_fraction=0.05,
        seeds=(0, 1, 2),
        surrogate_epochs=80,
        victim_epochs=80,
        output=str(tmp_path / "report.json"),
    )
    texts = []
    for _ in range(2):
        run_experiment(cfg)
        texts.append(
            (
                (tmp_path / "report.flips.json").read_text(),
                (tmp_path / "report.json").read_text(),
            )
        )
    assert texts[0][0] == texts[1][0], "flips lists must be byte-identical"
    r1, r2 = (json.loads(t[1]) for t in texts)
    wall1, wall2 = r1.pop("wall_clock_seconds"), r2.pop("wall_clock_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _report("8 determinism", True, f"wall clocks {wall1:.2f}s / {wall2:.2f}s differ only")
