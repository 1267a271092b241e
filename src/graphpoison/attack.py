"""Greedy budgeted edge-flip poisoning and the random DICE baseline.

The greedy loop alternates surrogate retraining with gradient-guided flip
selection: per iteration it scores every unordered pair by the gradient of
the attack objective in the feasible flip direction and, in the same
scan, applies the best pair the unnoticeability constraints allow. DICE
replaces the gradient with seeded coin flips (delete within a class, add
across classes) over the surrogate's pseudo-labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradients import CHUNK_ROWS, attack_factors, attack_objective, float32_factors, score_factors, upper_block
from .graph import Graph, _check_pair, count_flips, flip_edge, has_edge, upper_edges
from .losses import LossSpec
from .models import SurrogateHyper, check_fields, feature_operand, propagation, pseudo_labels, train_surrogate

Array = np.ndarray

ADD = "add"
DELETE = "delete"
DICE_MAX_RETRIES = 200  # draws per DICE step before the attack stops, exhausted
REASONS = ("singleton", "degree_test")  # reject reasons, by code - 1
FIT, REUSED, HELD = "fit", "reused", "held"  # a meta trace entry's surrogate: see meta_attack


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
        check_fields(self)


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

    ``retrain_every`` schedules a greedy refit at every ``retrain_every``-th
    step after the first; at a scheduled step the weights are, bit for bit,
    those of a fresh fit on the current graph. A refit whose labeled design
    the flips left unchanged returns the weights it already has
    (``train_surrogate``'s ``prior``) instead of rerunning the epochs.
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
        check_fields(self)
        for name in ("budget", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if not 0.0 <= self.dice_add_prob <= 1.0:
            raise ValueError("dice_add_prob must be in [0, 1]")


@dataclass(frozen=True)
class AttackResult:
    flips: list[tuple[int, int, str]]
    poisoned: Graph
    trace: list[dict]
    pseudo_labels: Array
    exhausted: bool = False


def _powerlaw_ll(n, sum_log):
    """Log-likelihood of a Zipf-type tail fit to ``n`` degrees >= 2 with Σ log d ``sum_log``; 0 where n is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = 1.0 + n / (sum_log - n * np.log(1.5))
        ll = n * np.log(alpha) + n * alpha * np.log(2.0) - (alpha + 1.0) * sum_log
    return np.where(n == 0, 0.0, ll)


def _tail_stats(deg: Array) -> tuple:
    """The count of the degrees >= 2 and their Σ log d, all the degree test reads of a sequence."""
    return (deg >= 2.0).sum(), np.log(np.maximum(deg, 1.0)).sum()  # log max(d, 1) is 0 below 2


def _reject_codes(d_i, d_j, deleting: bool, rules: AttackConstraints, stats) -> Array:
    """Why flipping pairs of endpoint degrees ``(d_i, d_j)`` is forbidden, elementwise.

    0 allows a flip, k rejects it for ``REASONS[k - 1]``; ``deleting``: the pairs are edges.
    ``stats`` (read by the degree test only) is the reference's :func:`_tail_stats`, then
    the current graph's: a flip moves only its endpoints' terms of the statistic."""
    code = np.zeros(np.broadcast(d_i, d_j).shape, dtype=np.int8)
    if rules.degree_test:
        n_ref, s_ref, n_new, s_new = stats
        for d in (d_i, d_j):
            e = d + (-1.0 if deleting else 1.0)
            n_new = n_new + (e >= 2.0) * 1 - (d >= 2.0)
            s_new = s_new + (np.log(np.maximum(e, 1.0)) - np.log(np.maximum(d, 1.0)))
        pooled = _powerlaw_ll(n_ref + n_new, s_ref + s_new)
        ratio = -2.0 * pooled + 2.0 * (_powerlaw_ll(n_ref, s_ref) + _powerlaw_ll(n_new, s_new))
        code[ratio > rules.degree_test_threshold] = 2
    if rules.forbid_singletons and deleting:
        code[np.minimum(d_i, d_j) <= 1.0] = 1
    return code


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
    i, j = _check_pair(g, i, j)
    rules, deg = cfg.constraints, g.degrees()
    stats = _tail_stats((reference or g).degrees()) + _tail_stats(deg) if rules.degree_test else None
    code = int(_reject_codes(deg[i], deg[j], has_edge(g, i, j), rules, stats))
    return REASONS[code - 1] if code else None


def _margin_summary(phi: Array, mask: Array) -> dict:
    vals = phi[mask]
    return {
        "mean": float(vals.mean()),
        "min": float(vals.min()),
        "max": float(vals.max()),
        "frac_negative": float((vals < 0).mean()),
    }


def _top_pairs(us: Array, vs: Array, s: Array, g: Graph, excluded: list, buffer: Array, rules, ref):
    """The best allowed positive-score pair i < j of ``g`` outside ``excluded``, as
    ``((score, i, j) or None, rejects)``, from the :func:`upper_block` scores.

    A score is the gradient in the one flip a pair admits (deleting an edge
    negates it); pairs rank by score, ties by the smaller row-major index.
    ``rejects`` counts by reason the forbidden positive-score pairs outside
    ``excluded`` that rank ahead. Deletions are judged per edge, additions
    on the grid of distinct degrees (gathered over a block only when one of
    its keys is forbidden). ``ref`` is the reference's :func:`_tail_stats`.

    Pass 1 bounds every block's best score in float32; pass 2 recomputes
    blocks in float64, best bound first, until a bound is more than the
    float32 margin below the best score (module ``gradients``): the result
    is that of a full float64 scan.
    """
    n, deg = g.n_nodes, g.degrees()
    stats = ref + _tail_stats(deg)
    iu, ju = upper_edges(g)
    del_codes = _reject_codes(deg[iu], deg[ju], True, rules, stats)
    levels, cls = np.unique(deg, return_inverse=True)
    grid = _reject_codes(levels[:, None], levels, False, rules, stats)
    add = grid[:, cls] if grid.any() else None  # per degree class, the addition codes of every column
    ex = np.array(excluded, dtype=np.int64).reshape(-1, 2)
    tri = np.tri(CHUNK_ROWS, dtype=bool)

    def candidates(left, right, r0):
        """Block ``r0`` scored in the flip each pair admits, -inf off the candidates; and its edges."""
        rows, block = upper_block(left, right, r0, buffer)
        h, cols = rows.stop - r0, n - r0
        edges = slice(*np.searchsorted(iu, [r0, rows.stop]))
        at_edges = (iu[edges] - r0) * cols + ju[edges] - r0
        block.reshape(-1)[at_edges] *= -1.0  # before the masks: an excluded edge must stay -inf
        block[:, :h][tri[:h, :h]] = -np.inf
        mine = (ex[:, 0] >= r0) & (ex[:, 0] < rows.stop)
        block[ex[mine, 0] - r0, ex[mine, 1] - r0] = -np.inf
        return rows, block.reshape(-1), edges, at_edges

    left, right = score_factors(us, vs, s)
    left32, right32, shift, margin = float32_factors(left, right)
    starts = range(0, n, CHUNK_ROWS)
    bounds = np.array([candidates(left32, right32, r0)[1].max() for r0 in starts], dtype=np.float64)
    best, best_index, found = 0.0, -1, []
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] < np.ldexp(best, shift) - margin:
            break  # this block and every later one score below the best
        rows, flat, edges, at_edges = candidates(left, right, starts[b])
        r0, cols, codes = rows.start, n - rows.start, del_codes[edges]
        if add is None:  # only edges can be forbidden
            at, codes = at_edges[codes != 0], codes[codes != 0]
        else:
            block_codes = add[cls[rows], r0:].reshape(-1)
            block_codes[at_edges] = codes
            forbidden = block_codes != 0
            top = flat.max(where=~forbidden, initial=-np.inf)
            at = np.flatnonzero(forbidden & (flat >= max(best, top)))  # below both it cannot rank ahead
            codes = block_codes[at]
        found.append((flat[at], at, codes, r0))  # block-local offsets: no index temporaries
        flat[at] = -np.inf
        k = int(flat.argmax())  # the block's first max, in row-major order
        index = (r0 + k // cols) * n + r0 + k % cols
        if flat[k] > best or (flat[k] == best and index < best_index):  # blocks come out of row order
            best, best_index = float(flat[k]), index
    counts = np.zeros(len(REASONS) + 1, dtype=np.int64)
    for vals, at, codes, r0 in found:  # part by part: never a concatenated copy
        ahead, tie = vals > best, np.flatnonzero(vals == best)
        ahead[tie] = (r0 + at[tie] // (n - r0)) * n + r0 + at[tie] % (n - r0) < best_index
        counts += np.bincount(codes[ahead], minlength=len(REASONS) + 1)
    chosen = (best, best_index // n, best_index % n) if best_index >= 0 else None
    return chosen, dict(zip(REASONS, counts[1:].tolist()))


def meta_attack(g: Graph, cfg: AttackConfig) -> AttackResult:
    """Gradient-guided greedy poisoning under a flip budget.

    The surrogate and pseudo-labels are fit on the clean graph. Per
    iteration: refit the surrogate at every ``retrain_every``-th step after
    the first, passing the current weights as ``train_surrogate``'s
    ``prior`` (re-deriving pseudo-labels on the current graph only when
    ``cfg.refresh_pseudo_labels``), compute the attack gradient under
    ``cfg.loss_spec`` with weights from the current margins, and apply the
    best-scoring constraint-allowed flip, found by one scan (:func:`_top_pairs`).
    Stops early, flagged ``exhausted``, when no allowed candidate still has
    positive score. A pair is never flipped twice. Each trace entry counts
    by reason the rejects, the forbidden pairs that rank ahead of its flip;
    ``candidates_checked`` is their count plus one. Its ``surrogate`` says
    where the step's weights came from: ``"fit"``, fitted at this step (the
    clean fit at step 0); ``"reused"``, a scheduled refit returned the
    prior weights, its labeled design unchanged; ``"held"``, no refit was
    scheduled. Deterministic given the config.
    """
    n = g.n_nodes
    if cfg.budget > n * (n - 1) // 2:
        raise ValueError("budget exceeds the number of unordered pairs")
    current = g
    flips: list[tuple[int, int, str]] = []
    trace: list[dict] = []
    params = train_surrogate(g, cfg.surrogate_hyper)
    pseudo = pseudo_labels(params, g)
    buffer = np.empty(CHUNK_ROWS * n)  # once per run: freed every step, it would stay in the heap
    ref = _tail_stats(g.degrees())

    for step in range(cfg.budget):
        surrogate = FIT if step == 0 else HELD
        if step and step % cfg.retrain_every == 0:
            prior, params = params, train_surrogate(current, cfg.surrogate_hyper, params)
            surrogate = REUSED if params is prior else FIT
            if cfg.refresh_pseudo_labels:
                pseudo = pseudo_labels(params, current)
        us, vs, s, info = attack_factors(current, params, cfg.loss_spec, pseudo)
        chosen, rejects = _top_pairs(us, vs, s, current, [f[:2] for f in flips], buffer, cfg.constraints, ref)
        if chosen is None:
            break

        score, i, j = chosen
        op = DELETE if has_edge(current, i, j) else ADD
        current = flip_edge(current, i, j)
        objective_after = attack_objective(
            propagation(current), feature_operand(g), params, pseudo, g.unlabeled_mask, cfg.loss_spec, info["weights"]
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
                "surrogate": surrogate,
            }
        )

    assert count_flips(g, current) == len(flips)
    return AttackResult(flips, current, trace, pseudo, exhausted=len(flips) < cfg.budget)


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
    iu, ju = upper_edges(g)
    same = pseudo[iu] == pseudo[ju]
    within = list(zip(iu[same].tolist(), ju[same].tolist()))

    for step in range(cfg.budget):
        for _ in range(DICE_MAX_RETRIES):
            if rng.random() < cfg.dice_add_prob:
                i, j = int(rng.integers(n)), int(rng.integers(n))
                if i == j or has_edge(current, i, j) or pseudo[i] == pseudo[j]:
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
