"""Reference implementations that only the tests use.

Each one is the plain, materializing form of something the library computes
faster or more implicitly; tests compare the two.
"""

import numpy as np

from graphpoison import Graph, LossSpec, SurrogateParams
from graphpoison.gradients import _chain_to_adjacency, _logit_gradient
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


def node_gradient(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: np.ndarray, node: int
) -> np.ndarray:
    """Raw (unsymmetrized) N x N gradient of one node's weighted objective term.

    Weights still come from the margins of the full logits, exactly as in
    ``attack_gradient``; only the loss term is restricted to ``node``.
    ``per_node_gradients`` returns the Frobenius norms of these matrices
    without materializing them.
    """
    ahat = normalize_adjacency(g.adjacency)
    logits = forward_logits(params, ahat, g.features)
    weights = resolve_weights(logits, labels, spec)
    only = np.zeros(g.n_nodes, dtype=bool)
    only[node] = True
    g_z = _logit_gradient(logits, labels, only, spec, weights)
    return _chain_to_adjacency(g_z, g, ahat, g.features @ params.weight)


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
