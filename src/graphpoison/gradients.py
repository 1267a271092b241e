"""Closed-form gradients of attack losses with respect to the adjacency.

The surrogate's logits are ``Z = Ahat (Ahat P)`` with ``P = X W`` and
``Ahat = D^{-1/2}(A + I)D^{-1/2}``, so with ``g_z = dL/dZ`` the gradient
``G = dL/dAhat = g_z (Ahat P)^T + (Ahat g_z) P^T = u^T v`` has rank <= 2K,
with factors stored factor-major: ``u = [g_z, Ahat g_z]^T`` and
``v = [Ahat P, P]^T``. Through the degree normalization,

    dL/dA[a, b] = G[a, b] / sqrt(d_a d_b)  -  (r_a + c_a) / (2 d_a),

with ``d`` the degrees of ``A + I`` and ``r``/``c`` the row/column sums of
``G * Ahat``. As ``Ahat`` is symmetric, ``r = sum_k u_k * Ahat v_k`` and
``c = sum_k v_k * Ahat u_k``, so :func:`_pull_back` needs no N x N array.
Nor does scoring. :func:`score_factors` stacks ``us``, ``vs`` and ``s``
into two (4K+2) x N factors whose product is the symmetrized gradient, so
:func:`pair_scores` scores a block of pairs by one rank-(4K+2) product.
The attack loop scans the upper triangle in row chunks through one
CHUNK_ROWS x N buffer (:func:`upper_blocks`); ``per_node_gradients``
builds no N x N array either. The dense N x N gradient, assembled from
the same blocks, the two-product form of the scores and the dense formula
are test oracles (``tests/oracles.py``), beside
``finite_difference_gradient``.

The attack maximizes a single scalar objective: the weighted masked sum of
the base loss for NLL, and its negation for the clamped-margin loss (which
the attack drives down). Cost-aware weights are computed from the margins
at the evaluation point and treated as constants, so the gradient of a
weighted node term is exactly the weight times the unweighted gradient.
That definition is written once, in :func:`_evaluate`: from the logits of
one forward pass it computes the margins once, and from them the weights,
the objective and ``d objective / d logits``. Every reader
(``attack_objective``, ``attack_factors``, ``per_node_gradients``,
``finite_difference_gradient``) takes them from it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .graph import Graph, normalize_adjacency
from .losses import NLL, LossSpec, loss_value, resolve_weights
from .models import SurrogateParams, forward_logits, margins, runner_up, softmax

Array = np.ndarray
CHUNK_ROWS = 256  # rows per score block: one block of CHUNK_ROWS x N doubles at a time


def _evaluate(
    logits: Array, labels: Array, mask: Array, spec: LossSpec, weights=None
) -> tuple[Array, Array, float, Array]:
    """``(margins, weights, objective, d objective / d logits)`` at ``logits``; weights resolved if None."""
    phi = margins(logits, labels)
    if weights is None:
        weights = resolve_weights(phi, spec)
    total, _ = loss_value(logits, labels, mask, spec, weights)
    rows = np.flatnonzero(mask)
    g_z = np.zeros_like(logits)
    if spec.base == NLL:
        probs = softmax(logits[rows])
        probs[np.arange(len(rows)), labels[rows]] -= 1.0
        g_z[rows] = weights[rows, None] * probs
        return phi, weights, total, g_z
    active = rows[phi[rows] > -spec.cw_kappa]
    g_z[active, labels[active]] = -weights[active]
    g_z[active, runner_up(logits[active], labels[active])] = weights[active]
    return phi, weights, -total, g_z  # the attack drives the clamped margin down


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
    return _evaluate(logits, labels, mask, spec, weights)[2]


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


def attack_factors(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: Array
) -> tuple[Array, Array, Array, dict]:
    """Factors of the attack gradient over the unlabeled nodes, from one forward pass.

    The surrogate parameters are held fixed; differentiation runs through
    the degree normalization. Returns ``us``, ``vs``, ``s`` (see
    :func:`_pull_back`; :func:`score_factors` stacks them for
    :func:`pair_scores`) and a dict of what the attack loop reads at the
    evaluation point: ``margins`` against ``labels``, the cost-aware
    ``weights`` (to freeze them when it re-evaluates the objective after a
    flip) and the ``objective`` value.
    """
    ahat = normalize_adjacency(g.csr)
    prop1 = g.features @ params.weight
    prop2 = ahat @ prop1
    logits = ahat @ prop2
    phi, weights, objective, g_z = _evaluate(logits, labels, g.unlabeled_mask, spec)
    ahat_gz = ahat @ g_z
    us, vs, s = _pull_back(
        np.vstack([g_z.T, ahat_gz.T]),
        np.vstack([prop2.T, prop1.T]),
        np.vstack([ahat_gz.T, (ahat @ ahat_gz).T]),
        np.vstack([logits.T, prop2.T]),
        g.degrees() + 1.0,
    )
    info = {"margins": phi, "weights": weights, "objective": objective}
    return us, vs, s, info


def score_factors(us: Array, vs: Array, s: Array) -> tuple[Array, Array]:
    """``(left, right)``, each (4K+2) x N: ``left = [us; vs; s; 1] / 2``, ``right = [vs; us; -1; -s]``.

    ``left[:, i] . right[:, j] = (us_i . vs_j + vs_i . us_j - s_i - s_j) / 2``,
    the symmetrized gradient of pair (i, j) off the diagonal. Halving is exact.
    """
    one = np.ones_like(s)
    left = np.vstack([us, vs, s, one])
    left /= 2.0
    return left, np.vstack([vs, us, -one, -s])


def pair_scores(left: Array, right: Array, rows: slice, cols: slice, out=None) -> Array:
    """Symmetrized gradient of the pairs ``rows x cols`` (slices with start and stop).

    One rank-(4K+2) product of the :func:`score_factors`, 0 where i == j.
    ``out``: optional C-contiguous buffer of the block's shape.
    """
    out = np.matmul(left[:, rows].T, right[:, cols], out=out)
    diag = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
    out[diag - rows.start, diag - cols.start] = 0.0
    return out


def upper_blocks(us: Array, vs: Array, s: Array, buffer: Array):
    """Yield ``(rows, pair_scores(..., rows, r0:N))`` for row chunks ``rows = r0:r1``.

    The factors are stacked once. Each block is a view of ``buffer``, a
    CHUNK_ROWS * N array, valid until the next is drawn. BLAS rounds an
    entry by the shape of its product, so all score readers come through here.
    """
    n = s.size
    left, right = score_factors(us, vs, s)
    for r0 in range(0, n, CHUNK_ROWS):
        rows = slice(r0, min(r0 + CHUNK_ROWS, n))
        out = buffer[: (rows.stop - r0) * (n - r0)].reshape(rows.stop - r0, n - r0)
        yield rows, pair_scores(left, right, rows, slice(r0, n), out)


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
    g_z = _evaluate(ahat @ prop2, labels, g.unlabeled_mask, spec)[3]
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
    """Central-difference oracle for the symmetrized attack gradient.

    Perturbs both mirrored entries of each unordered pair together by +-h,
    adding a two-entry sparse step to ``g.csr``, renormalizes, and re-evaluates
    the objective with the cost-aware weights frozen at the unperturbed
    point. The paired step measures twice the per-entry symmetrized
    gradient, so the central difference is divided by 4h to match
    :func:`pair_scores` over all pairs. Quadratic in h; meant for small
    graphs (N up to ~30).
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError("step size h must be finite and positive")
    mask = g.unlabeled_mask
    weights = _evaluate(forward_logits(params, normalize_adjacency(g.csr), g.features), labels, mask, spec)[1]

    n = g.n_nodes
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            step = sp.csr_matrix(([h, h], ([i, j], [j, i])), shape=(n, n))
            f_plus = attack_objective(g.csr + step, g.features, params, labels, mask, spec, weights)
            f_minus = attack_objective(g.csr - step, g.features, params, labels, mask, spec, weights)
            out[i, j] = out[j, i] = (f_plus - f_minus) / (4.0 * h)
    return out
