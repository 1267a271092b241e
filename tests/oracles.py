"""Reference implementations that only the tests use.

Each one is the plain, materializing form of something the library computes
faster or more implicitly; tests compare the two.
"""

import numpy as np

from graphpoison import Graph, LossSpec, SurrogateParams
from graphpoison.gradients import _logit_gradient
from graphpoison.graph import normalize_adjacency
from graphpoison.losses import resolve_weights
from graphpoison.models import forward_logits, log_softmax


def normalize_dense(adjacency) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} by the dense formula, for any nonnegative A."""
    A = np.asarray(adjacency, dtype=np.float64)
    tilde = A + np.eye(A.shape[0])
    inv_sqrt = 1.0 / np.sqrt(tilde.sum(axis=1))
    return tilde * np.outer(inv_sqrt, inv_sqrt)


def surrogate_nll(params: SurrogateParams, g: Graph) -> float:
    """Mean training NLL of the surrogate (L2 term omitted)."""
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    idx = np.flatnonzero(g.labeled_mask)
    logp = log_softmax(logits[idx])
    return float(-logp[np.arange(len(idx)), g.labels[idx]].mean())


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
    weights = resolve_weights(logits, labels, spec)
    return dense_adjacency_gradient(_logit_gradient(logits, labels, mask, spec, weights), g, params)


def dense_attack_gradient(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray
) -> np.ndarray:
    """``attack_gradient`` by the dense formula: ``(M + M^T) / 2`` over the unlabeled nodes."""
    raw = _masked_gradient(g, params, spec, labels, g.unlabeled_mask)
    return (raw + raw.T) / 2.0


def node_gradient(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray, node: int
) -> np.ndarray:
    """Raw (unsymmetrized) N x N gradient of one node's weighted objective term.

    Weights still come from the margins of the full logits, exactly as in
    ``attack_gradient``; only the loss term is restricted to ``node``.
    ``per_node_gradients`` returns the Frobenius norms of these matrices
    without materializing them.
    """
    only = np.zeros(g.n_nodes, dtype=bool)
    only[node] = True
    return _masked_gradient(g, params, spec, labels, only)


def score_flips(grad: np.ndarray, g: Graph) -> list[tuple[int, int, float]]:
    """Rank every unordered pair by gradient saliency in its feasible direction.

    ``score = M[i, j] * (1 - 2 A[i, j])``: positive means the one flip the
    pair admits (add when absent, delete when present) increases the attack
    objective. Descending by score, ties by (i, j). Materializes all
    N(N-1)/2 candidates; ``meta_attack`` takes an incremental argmax instead.
    """
    iu, ju = np.triu_indices(g.n_nodes, k=1)
    scores = grad[iu, ju] * (1.0 - 2.0 * g.adjacency[iu, ju])
    order = np.lexsort((ju, iu, -scores))
    return [(int(iu[k]), int(ju[k]), float(scores[k])) for k in order]
