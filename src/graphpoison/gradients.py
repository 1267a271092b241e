"""Closed-form gradients of attack losses with respect to the adjacency.

The surrogate's logits are ``Z = Ahat (Ahat P)`` with ``P = X W`` and
``Ahat = D^{-1/2}(A + I)D^{-1/2}``, so with ``g_z = dL/dZ`` the gradient
``G = dL/dAhat = g_z (Ahat P)^T + (Ahat g_z) P^T = u^T v`` has rank <= 2K,
with factors stored factor-major: ``u = [g_z, Ahat g_z]^T`` and
``v = [Ahat P, P]^T``. Through the degree normalization,

    dL/dA[a, b] = G[a, b] / sqrt(d_a d_b)  -  (r_a + c_a) / (2 d_a),

with ``d`` the degrees of ``A + I`` and ``r``/``c`` the row/column sums of
``G * Ahat``. As ``Ahat`` is symmetric, ``r = sum_k u_k * Ahat v_k`` and
``c = sum_k v_k * Ahat u_k``, so :func:`_pull_back` needs no N x N array:
``attack_gradient`` builds only its output (plus one transposed copy to
symmetrize it) and ``per_node_gradients`` none.
The dense formula is kept as a test oracle (``tests/oracles.py``), beside
``finite_difference_gradient``.

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


def _pull_back(u: Array, v: Array, ahat_u: Array, ahat_v: Array, deg: Array) -> tuple[Array, Array, Array]:
    """Pull ``dL/dAhat = u^T v`` back to the raw adjacency.

    ``u``, ``v`` are (k, N) factors, ``ahat_u``/``ahat_v`` their products
    with ``Ahat`` in the same layout, ``deg`` the degrees of ``A + I``.
    Returns the D^{-1/2}-scaled factors ``us``, ``vs`` and the degree term
    ``s``: the raw gradient is ``us^T vs - s 1^T`` with a zeroed diagonal
    (independent-entry semantics, NOT symmetrized).
    """
    s = (np.einsum("kn,kn->n", u, ahat_v) + np.einsum("kn,kn->n", v, ahat_u)) / (2.0 * deg)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return u * inv_sqrt, v * inv_sqrt, s


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
    ahat = normalize_adjacency(g.csr)
    logits = forward_logits(params, ahat, g.features)
    mask = g.unlabeled_mask

    weights = resolve_weights(logits, labels, spec)
    g_z = _logit_gradient(logits, labels, mask, spec, weights)
    prop1 = g.features @ params.weight
    prop2, ahat_gz = ahat @ prop1, ahat @ g_z
    us, vs, s = _pull_back(
        np.vstack([g_z.T, ahat_gz.T]),
        np.vstack([prop2.T, prop1.T]),
        np.vstack([ahat_gz.T, (ahat @ ahat_gz).T]),
        np.vstack([logits.T, prop2.T]),  # logits = Ahat prop2
        g.degrees() + 1.0,
    )
    grad = us.T @ vs - s[:, None]
    np.fill_diagonal(grad, 0.0)
    grad += grad.T
    grad /= 2.0
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
    """Frobenius norm of each unlabeled node's (raw) gradient matrix.

    Node v's term has ``dL/dAhat = e_v (Ahat P q)^T + Ahat[:, v] (P q)^T``
    with ``q = g_z[v]``: rank-2 factors, so each node costs O(N + nnz)
    instead of materializing an N x N matrix.
    """
    ahat = normalize_adjacency(g.csr)
    prop1 = g.features @ params.weight
    prop2 = ahat @ prop1
    logits = forward_logits(params, ahat, g.features)
    weights = resolve_weights(logits, labels, spec)
    full_mask = np.ones(g.n_nodes, dtype=bool)
    g_z = _logit_gradient(logits, labels, full_mask, spec, weights)
    deg = g.degrees() + 1.0
    n = g.n_nodes

    out: list[tuple[int, float]] = []
    for v in np.flatnonzero(g.unlabeled_mask):
        u = np.zeros((2, n))
        u[0, v] = 1.0
        row = slice(ahat.indptr[v], ahat.indptr[v + 1])
        u[1, ahat.indices[row]] = ahat.data[row]  # Ahat[:, v], read as row v (Ahat symmetric)
        a, b = prop2 @ g_z[v], prop1 @ g_z[v]
        us, vs, s = _pull_back(u, np.stack([a, b]), np.stack([u[1], ahat @ u[1]]), np.stack([ahat @ a, a]), deg)
        # ||us^T vs - s 1^T||_F^2 from 2 x 2 Grams, minus the zeroed diagonal
        diag = np.einsum("kn,kn->n", us, vs) - s
        total = ((us @ us.T) * (vs @ vs.T)).sum() - 2.0 * (us @ s) @ vs.sum(axis=1) + n * (s @ s) - diag @ diag
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
    logits = forward_logits(params, normalize_adjacency(g.csr), g.features)
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
