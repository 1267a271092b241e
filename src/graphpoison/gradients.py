"""Closed-form gradients of attack losses with respect to the adjacency.

The surrogate's logits are ``Z = Ahat (Ahat (X W))`` with
``Ahat = D^{-1/2}(A + I)D^{-1/2}``, so a scalar loss ``L(Z)`` pulls back to
the adjacency through two matrix products and the degree normalization.
With ``G = dL/dAhat`` the independent-entry gradient is

    dL/dA[u, v] = G[u, v] / sqrt(d_u d_v)  -  (r_u + c_u) / (2 d_u),

where ``d`` are the degrees of ``A + I`` and ``r``/``c`` are the row/column
sums of ``G * Ahat`` (the second term is the sensitivity of every entry of
row u's normalization to the degree bump from A[u, v]).

The attack maximizes a single scalar objective: the weighted masked sum of
the base loss for NLL, and its negation for the clamped-margin loss (which
the attack drives down). Cost-aware weights are computed from the margins
at the evaluation point and treated as constants, so the gradient of a
weighted node term is exactly the weight times the unweighted gradient.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, normalize_adjacency
from .losses import NLL, LossSpec, loss_value, resolve_weights
from .models import SurrogateParams, forward_logits, margins, runner_up, softmax

Array = np.ndarray


def attack_objective(
    adjacency: Array,
    features: Array,
    params: SurrogateParams,
    labels: Array,
    mask: Array,
    spec: LossSpec,
    weights: Array | None = None,
) -> float:
    """The scalar the attack ascends, evaluated on a (possibly relaxed) adjacency.

    For the NLL base this is the weighted masked loss sum; for the CW base
    it is the negated weighted clamp sum. ``weights`` freezes the
    cost-aware schedule at externally computed values.
    """
    logits = forward_logits(params, normalize_adjacency(adjacency), features)
    total, _ = loss_value(logits, labels, mask, spec, weights)
    return total if spec.base == NLL else -total


def _logit_gradient(logits: Array, labels: Array, mask: Array, spec: LossSpec, weights: Array) -> Array:
    """d objective / d logits, nonzero only on masked rows."""
    rows = np.flatnonzero(mask)
    g_z = np.zeros_like(logits)
    if spec.base == NLL:
        probs = softmax(logits[rows])
        probs[np.arange(len(rows)), labels[rows]] -= 1.0
        g_z[rows] = weights[rows, None] * probs
    else:
        phi = margins(logits, labels)
        second = runner_up(logits, labels)
        active = rows[phi[rows] > -spec.cw_kappa]
        g_z[active, labels[active]] = -weights[active]
        g_z[active, second[active]] = weights[active]
    return g_z


def _chain_to_adjacency(g_z: Array, g: Graph, ahat, prop1: Array) -> Array:
    """Pull d objective / d logits back to the raw adjacency gradient.

    ``ahat`` is the CSR normalized adjacency and ``prop1`` is ``X W``; the
    result has independent-entry semantics with a zeroed diagonal and is
    NOT symmetrized.
    """
    q = g_z @ prop1.T
    g_ahat = (ahat @ q.T).T + ahat @ q
    deg = g.adjacency.sum(axis=1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    direct = g_ahat * np.outer(inv_sqrt, inv_sqrt)
    t = g_ahat * ahat.toarray()
    s = (t.sum(axis=1) + t.sum(axis=0)) / (2.0 * deg)
    raw = direct - s[:, None]
    np.fill_diagonal(raw, 0.0)
    return raw


def attack_gradient(
    g: Graph,
    params: SurrogateParams,
    spec: LossSpec,
    labels: Array,
    return_info: bool = False,
):
    """Analytic gradient of the attack objective over the unlabeled nodes.

    The surrogate parameters are held fixed; differentiation runs through
    the degree normalization. Returns the symmetrized (N, N) array
    ``(M + M^T)/2``, which has a zero diagonal. With ``return_info=True``
    also returns a dict carrying the logits, margins, weights and objective
    value at the evaluation point (one forward pass, reused by the attack
    loop).
    """
    ahat = normalize_adjacency(g.adjacency)
    logits = forward_logits(params, ahat, g.features)
    mask = g.unlabeled_mask

    weights = resolve_weights(logits, labels, spec)
    g_z = _logit_gradient(logits, labels, mask, spec, weights)
    raw = _chain_to_adjacency(g_z, g, ahat, g.features @ params.weight)
    grad = (raw + raw.T) / 2.0
    if not return_info:
        return grad
    total, _ = loss_value(logits, labels, mask, spec, weights)
    info = {
        "logits": logits,
        "margins": margins(logits, labels),
        "weights": weights,
        "objective": total if spec.base == NLL else -total,
    }
    return grad, info


def per_node_gradients(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: Array
) -> list[tuple[int, float]]:
    """Frobenius norm of each unlabeled node's gradient matrix.

    Exploits the rank-2 structure of a single node's pulled-back gradient,
    so each node costs O(N + nnz) instead of materializing an N x N
    matrix per node.
    """
    ahat = normalize_adjacency(g.adjacency)
    ahat_dense = ahat.toarray()
    prop1 = g.features @ params.weight
    logits = forward_logits(params, ahat, g.features)
    weights = resolve_weights(logits, labels, spec)
    full_mask = np.ones(g.n_nodes, dtype=bool)
    g_z = _logit_gradient(logits, labels, full_mask, spec, weights)

    deg = g.adjacency.sum(axis=1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    n = g.n_nodes

    out: list[tuple[int, float]] = []
    for v in np.flatnonzero(g.unlabeled_mask):
        q = g_z[v]
        b = prop1 @ q
        a = ahat @ b               # == (Ahat X W) @ q
        col_v = ahat_dense[:, v]
        m2 = ahat @ col_v          # row v of Ahat^2

        # G_hat(v) = e_v a^T + col_v b^T; entrywise-normalized pieces:
        alpha = inv_sqrt[v] * (a * inv_sqrt)
        gamma = col_v * inv_sqrt
        delta = b * inv_sqrt

        r = ahat_dense[:, v] * a
        r[v] += a @ col_v
        c = a * col_v + b * m2
        s = (r + c) / (2.0 * deg)

        sq_direct = alpha @ alpha + 2.0 * gamma[v] * (alpha @ delta) + (gamma @ gamma) * (delta @ delta)
        row_sums = gamma * delta.sum()
        row_sums[v] += alpha.sum()
        total = sq_direct - 2.0 * (s @ row_sums) + n * (s @ s)

        diag = gamma * delta
        diag[v] += alpha[v]
        total -= (diag - s) @ (diag - s)
        out.append((int(v), float(np.sqrt(max(total, 0.0)))))
    return out


def finite_difference_gradient(
    g: Graph,
    params: SurrogateParams,
    spec: LossSpec,
    labels: Array,
    h: float = 1e-5,
) -> Array:
    """Central-difference oracle for :func:`attack_gradient`.

    Perturbs both mirrored entries of each unordered pair together by +-h
    on the relaxed adjacency, renormalizes, and re-evaluates the objective
    with the cost-aware weights frozen at the unperturbed point. The paired
    step measures twice the per-entry symmetrized gradient, so the central
    difference is divided by 4h to match ``attack_gradient``. Quadratic in
    h; meant for small graphs (N up to ~30).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    logits = forward_logits(params, normalize_adjacency(g.adjacency), g.features)
    weights = resolve_weights(logits, labels, spec)
    mask = g.unlabeled_mask

    n = g.n_nodes
    base = g.adjacency
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            plus = base.copy()
            plus[i, j] += h
            plus[j, i] += h
            minus = base.copy()
            minus[i, j] -= h
            minus[j, i] -= h
            f_plus = attack_objective(plus, g.features, params, labels, mask, spec, weights)
            f_minus = attack_objective(minus, g.features, params, labels, mask, spec, weights)
            out[i, j] = out[j, i] = (f_plus - f_minus) / (4.0 * h)
    return out
