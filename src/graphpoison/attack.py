"""Greedy budgeted edge-flip poisoning and the random DICE baseline.

The greedy loop alternates surrogate retraining with gradient-guided flip
selection: per iteration it scores every unordered pair by the gradient of
the attack objective in the feasible flip direction, filters candidates
through the unnoticeability constraints, and applies the best one. DICE
replaces the gradient with seeded coin flips (delete within a class, add
across classes) over the surrogate's pseudo-labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradients import CHUNK_ROWS, attack_factors, attack_objective, upper_blocks
from .graph import Graph, _check_pair, count_flips, flip_edge
from .losses import LossSpec
from .models import SurrogateHyper, _check_bool, _check_int, pseudo_labels, train_surrogate

Array = np.ndarray

ADD = "add"
DELETE = "delete"
DICE_MAX_RETRIES = 200  # draws per DICE step before the attack stops, exhausted
TOP_M = 32  # candidates a step's first scan keeps; each rescan keeps twice as many


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

    def __post_init__(self) -> None:
        _check_bool("forbid_singletons", self.forbid_singletons)
        _check_bool("degree_test", self.degree_test)
        if not math.isfinite(self.degree_test_threshold):
            raise ValueError("degree_test_threshold must be finite")


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
        _check_int("budget", self.budget, 0)
        _check_int("retrain_every", self.retrain_every, 1)
        _check_int("seed", self.seed, 0)
        _check_bool("refresh_pseudo_labels", self.refresh_pseudo_labels)
        if not 0.0 <= self.dice_add_prob <= 1.0:
            raise ValueError("dice_add_prob must be in [0, 1]")


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
    defaults to ``g``). Raises ValueError for a self-loop or an id outside
    ``g``, as :func:`flip_edge` does.
    """
    _check_pair(g, i, j)
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


def _top_pairs(
    us: Array, vs: Array, s: Array, csr, excluded: list, buffer: Array, m: int
) -> list[tuple[float, int, int]]:
    """The ``m`` best positive-score pairs i < j outside ``excluded``, as (score, i, j).

    A score is the gradient in the one flip a pair admits (deleting an edge
    negates it). Ordered by score, ties by the smaller row-major index.
    Each block is read in full once, for its row maxima; hits are read only
    from the hot rows, whose maximum reaches the block's cut-off.
    """
    n = s.size
    ex = np.array(excluded, dtype=np.int64).reshape(-1, 2)
    iu, ju = csr.nonzero()  # row-major
    upper = iu < ju
    iu, ju = iu[upper], ju[upper]
    best, index = np.empty(0), np.empty(0, dtype=np.int64)
    for rows, block in upper_blocks(us, vs, s, buffer):
        r0, r1 = rows.start, rows.stop
        edges = slice(*np.searchsorted(iu, [r0, r1]))
        block[iu[edges] - r0, ju[edges] - r0] *= -1.0
        block[:, : r1 - r0][np.tri(r1 - r0, dtype=bool)] = -np.inf
        mine = (ex[:, 0] >= r0) & (ex[:, 0] < r1)
        block[ex[mine, 0] - r0, ex[mine, 1] - r0] = -np.inf
        # later blocks hold larger indices, so they must beat the kept m-th score;
        # within a block, the m-th largest row maximum bounds the cut-off below
        row_max = block.max(axis=1)
        floor = best[-1] if best.size == m else 0.0
        low = np.sort(row_max)[-m] if r1 - r0 >= m else floor
        cut = low if low > floor else np.nextafter(floor, np.inf)
        hot = np.flatnonzero(row_max >= cut)  # the only rows that can hold a hit
        i, j = np.nonzero(block[hot] >= cut)
        best = np.concatenate([best, block[hot[i], j]])
        index = np.concatenate([index, (r0 + hot[i]) * n + r0 + j])
        order = np.lexsort((index, -best))[:m]
        best, index = best[order], index[order]
    return [(float(v), int(k // n), int(k % n)) for v, k in zip(best, index)]


def meta_attack(g: Graph, cfg: AttackConfig) -> AttackResult:
    """Gradient-guided greedy poisoning under a flip budget.

    The surrogate and pseudo-labels are fit on the clean graph. Per
    iteration: refit the surrogate at every ``retrain_every``-th step after
    the first (re-deriving pseudo-labels only when
    ``cfg.refresh_pseudo_labels``), compute the attack gradient under
    ``cfg.loss_spec`` with weights from the current margins, and apply the
    best-scoring constraint-allowed flip. Pairs are scored in row chunks and
    the best ``TOP_M`` are checked in order; only when all are rejected is
    the scan repeated without them, keeping twice as many. Stops early,
    flagged ``exhausted``, when no allowed candidate still has positive
    score. A pair is never flipped twice. Each trace entry counts the
    candidates checked and the rejects by reason. Deterministic given the
    config.
    """
    n = g.n_nodes
    if cfg.budget > n * (n - 1) // 2:
        raise ValueError("budget exceeds the number of unordered pairs")
    current = g
    flips: list[tuple[int, int, str]] = []
    trace: list[dict] = []
    params = train_surrogate(g, cfg.surrogate_hyper)
    pseudo = pseudo_labels(params, g)
    exhausted = False
    buffer = np.empty(CHUNK_ROWS * n)  # once per run: freed every step, it would stay in the heap

    for step in range(cfg.budget):
        if step and step % cfg.retrain_every == 0:
            params = train_surrogate(current, cfg.surrogate_hyper)
            if cfg.refresh_pseudo_labels:
                pseudo = pseudo_labels(params, current)
        us, vs, s, info = attack_factors(current, params, cfg.loss_spec, pseudo)
        excluded = [(i, j) for i, j, _ in flips]
        rejects = dict.fromkeys(("singleton", "degree_test"), 0)
        chosen, m = None, TOP_M
        while chosen is None:
            candidates = _top_pairs(us, vs, s, current.csr, excluded, buffer, m)
            for score, i, j in candidates:
                reason = constraint_check(current, i, j, cfg, reference=g)
                if reason is None:
                    chosen = (i, j, score)
                    break
                rejects[reason] += 1
                excluded.append((i, j))
            if len(candidates) < m:
                break  # every positive-score pair was checked
            m *= 2
        if chosen is None:
            exhausted = True
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
                "candidates_checked": sum(rejects.values()) + 1,
                "rejects": rejects,
            }
        )

    assert count_flips(g, current) == len(flips)
    return AttackResult(flips, current, trace, pseudo, exhausted)


def dice_attack(g: Graph, cfg: AttackConfig) -> AttackResult:
    """Random baseline: delete within-class edges, add cross-class non-edges.

    Class membership is the surrogate's pseudo-labeling (gray-box, like the
    gradient attack). Each step flips a seeded coin for the operation, draws
    a uniform candidate of that kind, and retries -- recoining -- when the
    draw is infeasible or constraint-rejected, up to ``DICE_MAX_RETRIES``
    attempts per step. A step whose attempts all fail ends the attack,
    flagged ``exhausted``, as ``meta_attack`` stops. No pair is flipped
    twice: an added pair is a cross-class edge from then on, and a deleted
    pair leaves the within-class edge list that deletions draw from.
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
            break  # no allowed flip within DICE_MAX_RETRIES draws

    assert count_flips(g, current) == len(flips)
    return AttackResult(flips, current, trace, pseudo, exhausted=len(flips) < cfg.budget)
