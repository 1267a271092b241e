"""Greedy budgeted edge-flip poisoning and the random DICE baseline.

The greedy loop alternates surrogate retraining with gradient-guided flip
selection: per iteration it scores every unordered pair by the gradient of
the attack objective in the feasible flip direction, filters candidates
through the unnoticeability constraints, and applies the best one. DICE
replaces the gradient with seeded coin flips (delete within a class, add
across classes) over the surrogate's pseudo-labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradients import attack_gradient, attack_objective
from .graph import Graph, count_flips, flip_edge
from .losses import LossSpec
from .models import SurrogateHyper, pseudo_labels, train_surrogate

Array = np.ndarray

ADD = "add"
DELETE = "delete"
DICE_MAX_RETRIES = 200  # draws per DICE step before the step fails


@dataclass(frozen=True)
class AttackConstraints:
    """Unnoticeability rules applied to every candidate flip.

    The singleton rule rejects deletions that would isolate a node. The
    optional degree test rejects flips whose degree sequence no longer
    looks drawn from the same power law as the reference graph's, using
    the likelihood-ratio statistic over degrees >= 2.
    """

    forbid_singletons: bool = True
    degree_test: bool = False
    degree_test_threshold: float = 0.004


@dataclass(frozen=True)
class AttackConfig:
    """Knobs of one attack run.

    ``refresh_pseudo_labels=False`` (the default) fixes the attack targets
    to the initial clean-graph surrogate's predictions, the self-training
    convention: nodes the attack has already flipped develop negative
    margins and the cost-aware schedule moves budget off them. ``True``
    re-labels at every retraining step instead, which keeps targets synced
    to the evolving surrogate but can never see a negative margin when
    ``retrain_every == 1``.
    """

    budget: int = 0
    loss_spec: LossSpec = field(default_factory=LossSpec)
    retrain_every: int = 1
    surrogate_hyper: SurrogateHyper = field(default_factory=SurrogateHyper)
    constraints: AttackConstraints = field(default_factory=AttackConstraints)
    seed: int = 0
    refresh_pseudo_labels: bool = False
    dice_add_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if not 0.0 <= self.dice_add_prob <= 1.0:
            raise ValueError("dice_add_prob must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class AttackResult:
    flips: list[tuple[int, int, str]]
    poisoned: Graph
    trace: list[dict]
    pseudo_labels: Array
    exhausted: bool = False


def _powerlaw_ll(log_deg: Array, n: int, d_min: int) -> float:
    """Log-likelihood of a fitted Zipf-type tail over degrees >= d_min."""
    if n == 0:
        return 0.0
    sum_log = float(log_deg.sum())
    alpha = 1.0 + n / (sum_log - n * np.log(d_min - 0.5))
    return n * np.log(alpha) + n * alpha * np.log(d_min) - (alpha + 1.0) * sum_log


def degree_likelihood_ratio(deg_ref, deg_new, d_min: int = 2) -> float:
    """Likelihood-ratio statistic comparing two degree sequences' power-law tails.

    Small values mean the sequences are plausibly from one distribution.
    """
    a = np.asarray(deg_ref, dtype=np.float64)
    b = np.asarray(deg_new, dtype=np.float64)
    la = np.log(a[a >= d_min])
    lb = np.log(b[b >= d_min])
    lc = np.concatenate([la, lb])
    ll_a = _powerlaw_ll(la, la.size, d_min)
    ll_b = _powerlaw_ll(lb, lb.size, d_min)
    ll_c = _powerlaw_ll(lc, lc.size, d_min)
    return -2.0 * ll_c + 2.0 * (ll_a + ll_b)


def constraint_check(
    g: Graph, i: int, j: int, cfg: AttackConfig, reference: Graph | None = None
) -> str | None:
    """Check flipping {i, j} on ``g`` against ``cfg.constraints``.

    Returns None when allowed, otherwise a reject reason ("singleton" or
    "degree_test"). ``reference`` is the graph whose degree distribution
    the test compares against (the clean graph inside the attack loop;
    defaults to ``g``).
    """
    if i == j:
        raise ValueError("self-loops cannot be flipped")
    rules = cfg.constraints
    deleting = g.csr[i, j] == 1.0
    deg = g.degrees()
    if rules.forbid_singletons and deleting and (deg[i] <= 1.0 or deg[j] <= 1.0):
        return "singleton"
    if rules.degree_test:
        ref = g if reference is None else reference
        deg[[i, j]] += -1.0 if deleting else 1.0
        ratio = degree_likelihood_ratio(ref.degrees(), deg)
        if ratio > rules.degree_test_threshold:
            return "degree_test"
    return None


def _margin_summary(phi: Array, mask: Array) -> dict:
    vals = phi[mask]
    return {
        "mean": float(vals.mean()),
        "min": float(vals.min()),
        "max": float(vals.max()),
        "frac_negative": float((vals < 0).mean()),
    }


def meta_attack(g: Graph, cfg: AttackConfig) -> AttackResult:
    """Gradient-guided greedy poisoning under a flip budget.

    Per iteration: retrain the surrogate every ``retrain_every`` steps
    (re-deriving pseudo-labels only when ``cfg.refresh_pseudo_labels``),
    compute the attack gradient under ``cfg.loss_spec`` with weights from
    the current margins, and apply the best-scoring constraint-allowed
    flip. Stops early, flagged ``exhausted``, when no allowed candidate
    still has positive score. A pair is never flipped twice. Deterministic
    given the config.
    """
    n = g.n_nodes
    if cfg.budget > n * (n - 1) // 2:
        raise ValueError("budget exceeds the number of unordered pairs")
    current = g
    flips: list[tuple[int, int, str]] = []
    trace: list[dict] = []
    params = None
    pseudo: Array | None = None
    exhausted = False

    for step in range(cfg.budget):
        if params is None or step % cfg.retrain_every == 0:
            params = train_surrogate(current, cfg.surrogate_hyper)
            if pseudo is None or cfg.refresh_pseudo_labels:
                pseudo = pseudo_labels(params, current)
        grad, info = attack_gradient(current, params, cfg.loss_spec, pseudo, return_info=True)

        scores = grad  # the feasible direction: removing an edge negates the gradient
        scores[current.csr.nonzero()] *= -1.0
        np.fill_diagonal(scores, -np.inf)
        for i, j, _ in flips:
            scores[i, j] = scores[j, i] = -np.inf
        chosen = None
        while True:
            flat = int(scores.argmax())
            i, j = divmod(flat, n)
            best = scores[i, j]
            if not best > 0.0:
                exhausted = True
                break
            if i > j:
                i, j = j, i
            if constraint_check(current, i, j, cfg, reference=g) is None:
                chosen = (i, j, float(best))
                break
            scores[i, j] = -np.inf
            scores[j, i] = -np.inf
        if chosen is None:
            break

        i, j, score = chosen
        op = DELETE if current.csr[i, j] == 1.0 else ADD
        current = flip_edge(current, i, j)
        objective_after = attack_objective(
            current.csr, g.features, params, pseudo, g.unlabeled_mask, cfg.loss_spec, info["weights"]
        )
        flips.append((i, j, op))
        trace.append(
            {
                "iteration": step,
                "flip": [i, j, op],
                "score": score,
                "objective_before": info["objective"],
                "objective_after": objective_after,
                "margins": _margin_summary(info["margins"], g.unlabeled_mask),
            }
        )

    assert pseudo is not None or cfg.budget == 0
    if pseudo is None:
        params = train_surrogate(g, cfg.surrogate_hyper)
        pseudo = pseudo_labels(params, g)
    assert count_flips(g, current) == len(flips)
    return AttackResult(flips, current, trace, pseudo, exhausted)


def dice_attack(g: Graph, cfg: AttackConfig) -> AttackResult:
    """Random baseline: delete within-class edges, add cross-class non-edges.

    Class membership is the surrogate's pseudo-labeling (gray-box, like the
    gradient attack). Each step flips a seeded coin for the operation, draws
    a uniform candidate of that kind, and retries -- recoining -- when the
    draw is infeasible or constraint-rejected, up to ``DICE_MAX_RETRIES``
    attempts per step. No pair is flipped twice: an added pair is a
    cross-class edge from then on, and a deleted pair leaves the
    within-class edge list that deletions draw from.
    """
    params = train_surrogate(g, cfg.surrogate_hyper)
    pseudo = pseudo_labels(params, g)
    rng = np.random.default_rng(cfg.seed)
    n = g.n_nodes
    current = g
    flips: list[tuple[int, int, str]] = []
    trace: list[dict] = []
    # within-class edges in row-major order; additions are cross-class, so
    # only deletions change the list
    iu, ju = g.csr.nonzero()
    same = (iu < ju) & (pseudo[iu] == pseudo[ju])
    within = list(zip(iu[same].tolist(), ju[same].tolist()))

    for step in range(cfg.budget):
        for _ in range(DICE_MAX_RETRIES):
            if rng.random() < cfg.dice_add_prob:
                i, j = int(rng.integers(n)), int(rng.integers(n))
                if i == j or current.csr[i, j] == 1.0 or pseudo[i] == pseudo[j]:
                    continue
                op = ADD
            else:
                if not within:
                    continue
                k = int(rng.integers(len(within)))
                i, j = within[k]
                op = DELETE
            if i > j:
                i, j = j, i
            if constraint_check(current, i, j, cfg, reference=g) is not None:
                continue
            current = flip_edge(current, i, j)
            if op == DELETE:
                within.pop(k)
            flips.append((i, j, op))
            trace.append({"iteration": step, "flip": [i, j, op]})
            break
        else:
            raise RuntimeError(
                f"DICE found no feasible flip within {DICE_MAX_RETRIES} retries at step {step}"
            )

    assert count_flips(g, current) == len(flips)
    return AttackResult(flips, current, trace, pseudo, exhausted=False)
