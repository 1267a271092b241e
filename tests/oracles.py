"""Reference implementations that only the tests use.

Each one is the plain, materializing form of something the library computes
faster or more implicitly; tests compare the two.
"""

import copy

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from graphpoison import (
    AttackConfig,
    Graph,
    LossSpec,
    SurrogateHyper,
    SurrogateParams,
    VictimHyper,
    constraint_check,
    flip_edge,
    margins,
    pseudo_labels,
    train_surrogate,
)
from graphpoison import gradients
from graphpoison.graph import normalize_adjacency
from graphpoison.models import _glorot, forward_logits, log_softmax, softmax


def flip_edge_by_sum(g: Graph, i: int, j: int) -> Graph:
    """``graph.flip_edge`` by a sparse sum: ``g.csr`` plus a two-entry +-1 CSR, less the zeros it leaves."""
    step = 1.0 - 2.0 * g.csr[i, j]
    A = g.csr + sp.csr_matrix(([step, step], ([i, j], [j, i])), shape=g.csr.shape)
    A.eliminate_zeros()
    out = copy.copy(g)
    object.__setattr__(out, "csr", A)
    return out


def normalize_dense(adjacency) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} by the dense formula, for any nonnegative A."""
    A = np.asarray(adjacency, dtype=np.float64)
    tilde = A + np.eye(A.shape[0])
    inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
    return tilde * np.outer(inv_sqrt, inv_sqrt)


def train_surrogate_primal(g: Graph, hyper: SurrogateHyper = SurrogateHyper()) -> SurrogateParams:
    """``train_surrogate`` by gradient descent on the full d x K weights.

    Same seeded initialization, learning rate, L2 penalty and epoch count;
    each epoch costs O(L d K) on the L x d labeled design.
    """
    d, k = g.features.shape[1], g.n_classes
    rng = np.random.default_rng(hyper.seed)
    scale = 1.0 / np.sqrt(d)
    W = rng.uniform(-scale, scale, size=(d, k))

    ahat = normalize_adjacency(g.csr)
    idx = np.flatnonzero(g.labeled_mask)
    f2_lab = ahat[idx] @ (ahat @ g.features)
    onehot = np.eye(k)[g.labels[idx]]
    for _ in range(hyper.epochs):
        probs = softmax(f2_lab @ W)
        grad = f2_lab.T @ (probs - onehot) / len(idx) + hyper.weight_decay * W
        W = W - hyper.lr * grad
    return SurrogateParams(W)


def log_softmax_rowwise(z: np.ndarray) -> np.ndarray:
    """``models.log_softmax`` with its row max taken along each row."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def train_victim_full(g: Graph, hyper: VictimHyper = VictimHyper()) -> float:
    """``train_victim`` with every epoch run over all N rows of the graph.

    Same seeded initialization, Adam steps and dropout stream: each epoch
    draws one uniform per nonzero of ``X[N2]`` and an |N1| x h block, as the
    library does, and scatters them into full-shape masks that hold ones at
    every other entry. ``N1`` are the columns of ``Ahat[lab]`` and ``N2``
    the columns of ``Ahat[N1]``; no unit outside them reaches the loss.
    The first layer is always right-associated, ``Ahat (X_d W1)``, whatever
    the feature width.
    """
    rng = np.random.default_rng(hyper.seed)
    X = g.features
    (n, d), k, h = X.shape, g.n_classes, hyper.hidden
    W1 = _glorot(rng, d, h)
    W2 = _glorot(rng, h, k)

    ahat = normalize_adjacency(g.csr)
    idx = np.flatnonzero(g.labeled_mask)
    a_lab = ahat[idx]
    n1 = np.unique(a_lab.indices)
    n2 = np.unique(ahat[n1].indices)
    live = np.zeros(X.shape, dtype=bool)
    live[n2] = X[n2] != 0.0
    live = np.flatnonzero(live)  # row-major, as the CSR data of X[N2]
    onehot = np.eye(k)[g.labels[idx]]
    keep = 1.0 - hyper.dropout
    mask_x, mask_h = np.ones(X.size), np.ones((n, h))

    m1, v1, m2, v2 = (np.zeros_like(W) for W in (W1, W1, W2, W2))
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, hyper.epochs + 1):
        if hyper.dropout > 0.0:
            mask_x[live] = (rng.random(live.size) < keep) / keep
            mask_h[n1] = (rng.random((n1.size, h)) < keep) / keep
        xd = X * mask_x.reshape(X.shape)
        s1 = ahat @ (xd @ W1)
        ah_lab = a_lab @ (np.maximum(s1, 0.0) * mask_h)
        g_z = (softmax(ah_lab @ W2) - onehot) / len(idx)
        g_w2 = ah_lab.T @ g_z + hyper.weight_decay * W2
        g_s1 = (a_lab.T @ (g_z @ W2.T)) * mask_h * (s1 > 0.0)
        g_w1 = xd.T @ (ahat @ g_s1) + hyper.weight_decay * W1
        for W, gw, m, v in ((W1, g_w1, m1, v1), (W2, g_w2, m2, v2)):
            m *= b1; m += (1 - b1) * gw
            v *= b2; v += (1 - b2) * gw * gw
            W -= hyper.lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    logits = ahat @ (np.maximum(ahat @ (X @ W1), 0.0) @ W2)
    unl = g.unlabeled_mask
    return float((logits[unl].argmax(axis=1) == g.labels[unl]).mean())


def surrogate_nll(params: SurrogateParams, g: Graph) -> float:
    """Mean training NLL of the surrogate (L2 term omitted)."""
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    idx = np.flatnonzero(g.labeled_mask)
    logp = log_softmax(logits[idx])
    return float(-logp[np.arange(len(idx)), g.labels[idx]].mean())


def nll_loss(logits: np.ndarray, labels: np.ndarray, mask) -> tuple[float, np.ndarray]:
    """Per-node -log softmax(z)[label] and its sum over ``mask``: ``loss_value``'s unweighted NLL."""
    mask = np.asarray(mask, dtype=bool)
    logp = log_softmax(logits)
    per_node = -logp[np.arange(logits.shape[0]), labels]
    return float(per_node[mask].sum()), per_node


def cw_loss(logits: np.ndarray, labels: np.ndarray, mask, kappa: float = 0.0) -> tuple[float, np.ndarray]:
    """Clamped margin max(margin, -kappa) per node, summed over ``mask``: ``loss_value``'s unweighted CW."""
    mask = np.asarray(mask, dtype=bool)
    per_node = np.maximum(margins(logits, labels), -kappa)
    return float(per_node[mask].sum()), per_node


def attack_gradient(g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the attack objective over the unlabeled nodes, as an (N, N) array.

    The symmetrized ``(M + M^T)/2`` with a zero diagonal: the upper triangle
    from ``upper_block``, mirrored, so each entry equals the score
    ``meta_attack`` reads for its pair bit for bit. ``attack_factors`` is
    looked up on its module, where a test may replace it.
    """
    return assembled_scores(*gradients.attack_factors(g, params, spec, labels)[:3])


def assembled_scores(us: np.ndarray, vs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (N, N) symmetric matrix of all pair scores, mirrored from the float64 ``upper_block``s."""
    n = s.size
    left, right = gradients.score_factors(us, vs, s)
    buffer, grad = np.empty(gradients.CHUNK_ROWS * n), np.empty((n, n))
    for r0 in range(0, n, gradients.CHUNK_ROWS):
        rows, block = gradients.upper_block(left, right, r0, buffer)
        grad[rows.start :, rows] = block.T
        grad[rows, rows.start :] = block
        square, lower = grad[rows, rows], np.tril_indices(rows.stop - rows.start, -1)
        square[lower] = square.T[lower]
    return grad


def pair_scores_two_products(
    us: np.ndarray, vs: np.ndarray, s: np.ndarray, rows: slice, cols: slice
) -> np.ndarray:
    """``gradients.pair_scores`` from the unstacked factors, by two rank-2K products.

    Entry (i, j) is ``((us_i . vs_j - s_i) + (vs_i . us_j - s_j)) / 2``, 0 where
    i == j: the symmetrized ``(M + M^T) / 2`` of ``M = us^T vs - s 1^T``.
    """
    out = us[:, rows].T @ vs[:, cols] - s[rows, None]
    out += vs[:, rows].T @ us[:, cols] - s[cols]
    out /= 2.0
    diag = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
    out[diag - rows.start, diag - cols.start] = 0.0
    return out


def dense_adjacency_gradient(g_z: np.ndarray, g: Graph, params: SurrogateParams) -> np.ndarray:
    """Pull d objective / d logits back to the raw adjacency by the dense formula.

    ``G = dL/dAhat = g_z (Ahat X W)^T + Ahat g_z (X W)^T`` is materialized,
    and ``dL/dA[u, v] = G[u, v] / sqrt(d_u d_v) - (r_u + c_u) / (2 d_u)``
    with ``r``/``c`` the row/column sums of ``G * Ahat``. Independent-entry
    semantics, zeroed diagonal, NOT symmetrized.
    """
    ahat = normalize_dense(g.adjacency)
    prop1 = g.features @ params.weight
    g_ahat = g_z @ (ahat @ prop1).T + (ahat @ g_z) @ prop1.T
    deg = g.adjacency.sum(axis=1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    t = g_ahat * ahat
    s = (t.sum(axis=1) + t.sum(axis=0)) / (2.0 * deg)
    raw = g_ahat * np.outer(inv_sqrt, inv_sqrt) - s[:, None]
    np.fill_diagonal(raw, 0.0)
    return raw


def _masked_gradient(g: Graph, params: SurrogateParams, spec: LossSpec, labels, mask) -> np.ndarray:
    """Raw dense-formula gradient of the objective restricted to ``mask``.

    Weights come from the margins of the full logits, as in the library.
    """
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    g_z = gradients._evaluate(logits, labels, mask, spec)[3]
    return dense_adjacency_gradient(g_z, g, params)


def dense_attack_gradient(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray
) -> np.ndarray:
    """:func:`attack_gradient` by the dense formula: ``(M + M^T) / 2`` over the unlabeled nodes."""
    raw = _masked_gradient(g, params, spec, labels, g.unlabeled_mask)
    return (raw + raw.T) / 2.0


def node_gradient(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray, node: int
) -> np.ndarray:
    """Raw (unsymmetrized) N x N gradient of one node's weighted objective term.

    Weights still come from the margins of the full logits, exactly as in
    :func:`attack_gradient`; only the loss term is restricted to ``node``.
    ``per_node_gradients`` returns the Frobenius norms of these matrices
    from shared K x K Grams and sums over each node's 2-hop ball;
    :func:`per_node_gradients_loop` from each node's rank-2 factors.
    """
    only = np.zeros(g.n_nodes, dtype=bool)
    only[node] = True
    return _masked_gradient(g, params, spec, labels, only)


def per_node_gradients_loop(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray
) -> list[tuple[int, float]]:
    """``per_node_gradients`` by a loop over the unlabeled nodes.

    Node v's term has ``dL/dAhat = e_v (Ahat P q)^T + Ahat[:, v] (P q)^T``
    with ``q = g_z[v]``: rank-2 factors ``u``, ``v``, pulled back as in
    ``attack_factors`` to ``us^T vs - s 1^T`` with a zeroed diagonal, whose
    norm comes from 2 x 2 Grams. Each node costs O(N + nnz), so O(N^2) in all.
    """
    ahat = normalize_adjacency(g.csr)
    prop1 = g.features @ params.weight
    prop2 = ahat @ prop1
    g_z = gradients._evaluate(ahat @ prop2, labels, g.unlabeled_mask, spec)[3]
    deg = g.degrees() + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    n = g.n_nodes

    out = []
    for node in np.flatnonzero(g.unlabeled_mask):
        u = np.zeros((2, n))
        u[0, node] = 1.0
        row = slice(ahat.indptr[node], ahat.indptr[node + 1])
        u[1, ahat.indices[row]] = ahat.data[row]  # Ahat[:, node], read as row node (Ahat symmetric)
        a, b = prop2 @ g_z[node], prop1 @ g_z[node]
        v = np.stack([a, b])
        ahat_u, ahat_v = np.stack([u[1], ahat @ u[1]]), np.stack([ahat @ a, a])
        s = (np.einsum("kn,kn->n", u, ahat_v) + np.einsum("kn,kn->n", v, ahat_u)) / (2.0 * deg)
        us, vs = u * inv_sqrt, v * inv_sqrt
        # ||us^T vs - s 1^T||_F^2 from 2 x 2 Grams, minus the zeroed diagonal
        diag = np.einsum("kn,kn->n", us, vs) - s
        total = ((us @ us.T) * (vs @ vs.T)).sum() - 2.0 * (us @ s) @ vs.sum(axis=1) + n * (s @ s) - diag @ diag
        out.append((int(node), float(np.sqrt(max(total, 0.0)))))
    return out


def score_flips(grad: np.ndarray, g: Graph) -> list[tuple[int, int, float]]:
    """Rank every unordered pair by gradient saliency in its feasible direction.

    ``score = M[i, j] * (1 - 2 A[i, j])``: positive means the one flip the
    pair admits (add when absent, delete when present) increases the attack
    objective. Descending by score, ties by (i, j). Materializes all
    N(N-1)/2 candidates; ``meta_attack`` keeps only the best few per scan.
    """
    iu, ju = np.triu_indices(g.n_nodes, k=1)
    scores = grad[iu, ju] * (1.0 - 2.0 * g.adjacency[iu, ju])
    order = np.lexsort((ju, iu, -scores))
    return list(zip(iu[order].tolist(), ju[order].tolist(), scores[order].tolist()))


def _powerlaw_ll(log_deg: np.ndarray, d_min: int) -> float:
    """Log-likelihood of a fitted Zipf-type tail over the logs of the degrees >= d_min."""
    n = log_deg.size
    if n == 0:
        return 0.0
    sum_log = float(log_deg.sum())
    alpha = 1.0 + n / (sum_log - n * np.log(d_min - 0.5))
    return n * np.log(alpha) + n * alpha * np.log(d_min) - (alpha + 1.0) * sum_log


def degree_likelihood_ratio(deg_ref, deg_new, d_min: int = 2) -> float:
    """The degree test's likelihood-ratio statistic from two whole degree sequences.

    Each power-law tail, and that of the pooled sequence, is fit from its
    degrees >= d_min. Small values mean the sequences are plausibly from
    one distribution.
    """
    a = np.asarray(deg_ref, dtype=np.float64)
    b = np.asarray(deg_new, dtype=np.float64)
    la = np.log(a[a >= d_min])
    lb = np.log(b[b >= d_min])
    pooled = _powerlaw_ll(np.concatenate([la, lb]), d_min)
    return -2.0 * pooled + 2.0 * (_powerlaw_ll(la, d_min) + _powerlaw_ll(lb, d_min))


def dense_best_pair(grad: np.ndarray, g: Graph, excluded, cfg: AttackConfig, reference: Graph):
    """``attack._top_pairs`` by the dense ranking of the N x N symmetrized gradient ``grad``.

    Every pair ranked by :func:`score_flips`; pairs in ``excluded`` are
    skipped, and ``constraint_check`` runs in that order until one passes.
    Returns ``((score, i, j), rejects)``, or ``(None, rejects)`` when no
    allowed pair scores above 0.
    """
    done = set(excluded)
    counts = {"singleton": 0, "degree_test": 0}
    for i, j, score in score_flips(grad, g):
        if not score > 0.0:
            break
        if (i, j) in done:
            continue
        reason = constraint_check(g, i, j, cfg, reference=reference)
        if reason is None:
            return (score, i, j), counts
        counts[reason] += 1
    return None, counts


def dense_greedy_attack(g: Graph, cfg: AttackConfig) -> tuple[list, list[float], list[dict], bool]:
    """``meta_attack``'s greedy loop over the full N x N gradient.

    Per step: the full :func:`attack_gradient` and :func:`dense_best_pair`.
    Returns the flips, their scores, each step's rejects by reason and
    whether the loop ran out of allowed positive-score pairs.
    """
    params = train_surrogate(g, cfg.surrogate_hyper)
    pseudo = pseudo_labels(params, g)
    current, flips, scores, rejects = g, [], [], []
    for step in range(cfg.budget):
        if step and step % cfg.retrain_every == 0:
            params = train_surrogate(current, cfg.surrogate_hyper)
            if cfg.refresh_pseudo_labels:
                pseudo = pseudo_labels(params, current)
        grad = attack_gradient(current, params, cfg.loss_spec, pseudo)
        chosen, counts = dense_best_pair(grad, current, [(i, j) for i, j, _ in flips], cfg, g)
        if chosen is None:
            return flips, scores, rejects, True
        score, i, j = chosen
        flips.append((i, j, "delete" if current.csr[i, j] == 1.0 else "add"))
        scores.append(score)
        rejects.append(counts)
        current = flip_edge(current, i, j)
    return flips, scores, rejects, False


def sbm_graph_dense(
    block_sizes=(50, 50),
    p_in: float = 0.2,
    p_out: float = 0.01,
    feature_noise: float = 1.0,
    labeled_fraction: float = 0.1,
    seed: int = 0,
    connected: bool = True,
) -> Graph:
    """``sbm_graph`` from one N x N coin draw, an N x N probability array and a dense adjacency.

    Same generator stream: the coins, then the features, then the stratified
    mask. It draws the mask only once, so where the largest component holds
    a single side of it, ``Graph`` raises.
    """
    rng = np.random.default_rng(seed)
    sizes = list(block_sizes)
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)

    probs = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < probs, k=1)
    adj = (upper | upper.T).astype(np.float64)

    features = np.eye(len(sizes))[labels] + feature_noise * rng.normal(size=(n, len(sizes)))

    mask = np.zeros(n, dtype=bool)
    for b in range(len(sizes)):
        members = np.flatnonzero(labels == b)
        take = max(1, int(np.floor(labeled_fraction * members.size)))
        mask[rng.choice(members, size=take, replace=False)] = True

    g = Graph(adj, features, labels, mask, n_classes=len(sizes))
    if not connected:
        return g
    # the largest component; on a tie in size, the one holding the smallest id
    _, comp = connected_components(adj, directed=False)
    _, first = np.unique(comp, return_index=True)
    winner = np.lexsort((first, -np.bincount(comp)))[0]
    keep = np.flatnonzero(comp == winner)
    return Graph(g.csr[keep][:, keep], features[keep], labels[keep], mask[keep], n_classes=len(sizes))


def component_roots_csgraph(pairs, n: int) -> np.ndarray:
    """``graph.component_roots`` by scipy's ``connected_components``: per node, the smallest id of its component."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    _, comp = connected_components(sp.coo_matrix((np.ones(len(pairs)), pairs.T), shape=(n, n)), directed=False)
    _, first = np.unique(comp, return_index=True)  # each component's smallest id, by component number
    return first[comp]
