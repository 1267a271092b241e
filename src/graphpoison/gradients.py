"""Closed-form gradients of attack losses with respect to the adjacency.

The surrogate's logits are ``Z = Ahat P2`` with ``P1 = X W``, ``P2 = Ahat P1``
and ``Ahat = D^{-1/2}(A + I)D^{-1/2}``, so with ``g_z = dL/dZ`` the gradient
``G = dL/dAhat = g_z P2^T + (Ahat g_z) P1^T = u^T v`` has rank <= 2K, with
factors stored factor-major: ``u = [g_z, Ahat g_z]^T`` and ``v = [P2, P1]^T``.
Through the degree normalization,

    dL/dA[a, b] = G[a, b] / sqrt(d_a d_b)  -  (r_a + c_a) / (2 d_a),

with ``d`` the degrees of ``A + I`` and ``r``/``c`` the row/column sums of
``G * Ahat``. As ``Ahat`` is symmetric, ``r = sum_k u_k * Ahat v_k`` and
``c = sum_k v_k * Ahat u_k``, so :func:`attack_factors` pulls ``G`` back
with no N x N array. Nor does scoring: :func:`score_factors` stacks the
pulled-back factors into two (4K+2) x N factors whose product is the
symmetrized gradient, and :func:`upper_block` computes the upper triangle's
row chunks, one at a time, in one CHUNK_ROWS x N buffer.

The attack's scan over those blocks (``attack._top_pairs``) takes two
passes. Pass 1 computes every block in float32 from :func:`float32_factors`,
which rescale the factors by powers of two so their largest column norms lie
in [1/2, 1) and no product can overflow, and keeps each masked block's max.
By Higham's bound for a dot product of length n = 4K+2 in any summation order
(*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1), a
float32 score of the scaled factors (two conversions, n products and sums)
lies within

    E = (gamma_{n+2}(2^-24) + gamma_n(2^-53)) max||left_i|| max||right_j|| + (n+2) 2^-149

of the float64 one scaled alike, with ``gamma_n(u) = n u / (1 - n u)``, the
largest scaled column norms, and the last term covering underflow. Pass 2 visits the blocks by decreasing float32 max and
recomputes each in float64 until one's max falls below ``best - E``: no
pair there can reach the best score, so the float64 scores, the choice and
the rejects are those of a full float64 scan. :func:`per_node_gradients`
takes each node's gradient norm from K x K Grams and a sum over its 2-hop
ball. The dense N x N gradient, the two-product scores, the dense formula
and the per-node loop are test oracles (``tests/oracles.py``).

The attack maximizes a single scalar objective: the weighted masked sum of
the base loss for NLL, and its negation for the clamped-margin loss (which
the attack drives down). Cost-aware weights are computed from the margins
at the evaluation point and treated as constants, so the gradient of a
weighted node term is exactly the weight times the unweighted gradient.
That definition is written once, in :func:`_evaluate`, from the logits of
one forward pass. ``attack_objective`` calls it at a given Ahat, every
other reader through :func:`_forward` at ``models.propagation``; both multiply
``X W`` with X from ``models.feature_operand``, CSR when features are sparse.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .graph import Graph, normalize_adjacency
from .losses import NLL, LossSpec, loss_value, resolve_weights
from .models import SurrogateParams, feature_operand, forward_logits, margins, propagation, runner_up, softmax

Array = np.ndarray
CHUNK_ROWS = 256  # rows per score block: one block of CHUNK_ROWS x N doubles at a time


def _evaluate(
    logits: Array, labels: Array, mask: Array, spec: LossSpec, weights=None, derivative: bool = True
) -> tuple[Array | None, Array, float, Array | None]:
    """``(margins, weights, objective, d objective / d logits)`` at ``logits``; weights resolved if None.

    With ``derivative=False`` only what the objective reads is computed: the
    derivative comes back None, and so do the margins when ``weights`` are given.
    """
    phi = margins(logits, labels) if weights is None or derivative else None
    if weights is None:
        weights = resolve_weights(phi, spec)
    total, _ = loss_value(logits, labels, mask, spec, weights)
    if spec.base != NLL:
        total = -total  # the attack drives the clamped margin down
    if not derivative:
        return phi, weights, total, None
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
    return phi, weights, total, g_z


def attack_objective(
    ahat: sp.spmatrix,
    features: Array | sp.spmatrix,
    params: SurrogateParams,
    labels: Array,
    mask: Array,
    spec: LossSpec,
    weights: Array | None = None,
) -> float:
    """The scalar the attack ascends at ``ahat``: a graph's ``models.propagation``, or a relaxed one.

    For the NLL base this is the weighted masked loss sum; for the CW base
    it is the negated weighted clamp sum. ``weights`` freezes the cost-aware
    schedule at given values; ``features`` is dense or CSR (``feature_operand``).
    Computes the objective alone, not its derivative.
    """
    logits = forward_logits(params, ahat, features)
    return _evaluate(logits, labels, mask, spec, weights, derivative=False)[2]


def _forward(g: Graph, params: SurrogateParams, spec: LossSpec, labels: Array) -> tuple:
    """``(ahat, P1, P2, logits, _evaluate(...))`` of one forward pass, over the unlabeled nodes."""
    ahat = propagation(g)
    prop1 = feature_operand(g) @ params.weight
    prop2 = ahat @ prop1
    logits = ahat @ prop2
    return ahat, prop1, prop2, logits, _evaluate(logits, labels, g.unlabeled_mask, spec)


def attack_factors(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: Array
) -> tuple[Array, Array, Array, dict]:
    """Factors of the attack gradient over the unlabeled nodes, from one forward pass.

    With the surrogate parameters fixed, ``dL/dAhat = u^T v`` is pulled back
    through the degree normalization to the D^{-1/2}-scaled ``us``, ``vs`` and
    the degree term ``s``: the raw gradient is ``us^T vs - s 1^T`` with a
    zeroed diagonal (independent-entry semantics, NOT symmetrized). The dict
    holds what the attack loop reads: ``margins`` against ``labels``, the
    cost-aware ``weights`` (frozen when it re-evaluates the objective after
    a flip) and the ``objective`` value.
    """
    ahat, prop1, prop2, logits, (phi, weights, objective, g_z) = _forward(g, params, spec, labels)
    ahat_gz = ahat @ g_z
    u = np.vstack([g_z.T, ahat_gz.T])
    v = np.vstack([prop2.T, prop1.T])
    ahat_u = np.vstack([ahat_gz.T, (ahat @ ahat_gz).T])
    ahat_v = np.vstack([logits.T, prop2.T])
    deg = g.degrees() + 1.0
    s = (np.einsum("kn,kn->n", u, ahat_v) + np.einsum("kn,kn->n", v, ahat_u)) / (2.0 * deg)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return u * inv_sqrt, v * inv_sqrt, s, {"margins": phi, "weights": weights, "objective": objective}


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


def upper_block(left: Array, right: Array, r0: int, buffer: Array) -> tuple[slice, Array]:
    """``(rows, pair_scores(left, right, rows, r0:N))`` for the row chunk ``rows = r0:r0 + CHUNK_ROWS``.

    The block is a view of ``buffer``, a CHUNK_ROWS * N float64 array, in the
    factors' dtype: a float32 block uses the same bytes. It is valid until the
    next is drawn. BLAS rounds an entry by the shape of its product, so every
    score reader comes through here.
    """
    n = left.shape[1]
    rows = slice(r0, min(r0 + CHUNK_ROWS, n))
    out = buffer.view(left.dtype)[: (rows.stop - r0) * (n - r0)].reshape(rows.stop - r0, n - r0)
    return rows, pair_scores(left, right, rows, slice(r0, n), out)


def _margin(depth: int, left_norm: float, right_norm: float) -> float:
    """E of the module docstring: how far a float32 score of factors ``depth`` deep, of column
    norms at most ``left_norm`` and ``right_norm``, can lie from the float64 one."""
    n32, n64 = (depth + 2) * 2.0**-24, depth * 2.0**-53  # gamma_n(u) = n u / (1 - n u)
    return (n32 / (1.0 - n32) + n64 / (1.0 - n64)) * left_norm * right_norm + (depth + 2) * 2.0**-149


def float32_factors(left: Array, right: Array) -> tuple[Array, Array, int, float]:
    """``(left32, right32, shift, margin)``: the :func:`score_factors` in float32, for bounding scores.

    ``left`` and ``right`` are scaled by powers of two so that their largest
    column norms lie in [1/2, 1): no float32 product of them can overflow. A
    float32 pair score of the scaled factors is within ``margin`` (:func:`_margin`)
    of the float64 pair score times ``2**shift``.
    """
    norms = [np.sqrt(np.einsum("kn,kn->n", f, f).max(initial=0.0)) for f in (left, right)]
    exps = [int(np.frexp(x)[1]) for x in norms]  # x * 2**-e lies in [1/2, 1)
    left32, right32 = (np.ldexp(f, -e).astype(np.float32) for f, e in zip((left, right), exps))
    margin = _margin(left.shape[0], *(np.ldexp(x, -e) for x, e in zip(norms, exps)))
    return left32, right32, -sum(exps), margin


def per_node_gradients(
    g: Graph, params: SurrogateParams, spec: LossSpec, labels: Array
) -> list[tuple[int, float]]:
    """Frobenius norm of each unlabeled node's (raw) gradient matrix, in one pass.

    Node v's term, ``dL/dAhat = e_v (P2 q)^T + Ahat[:, v] (P1 q)^T`` with
    ``q = g_z[v]``, pulls back as in :func:`attack_factors` to ``us^T vs - s 1^T``
    with a zeroed diagonal, of squared norm
    ``tr(us us^T vs vs^T) - 2 (us s) . (vs 1) + N s.s - diag.diag``. Both 2 x 2
    Grams read ``q`` through K x K Grams ``G_xy = P_x^T D^{-1} P_y`` that all
    nodes share, and ``vs 1`` is linear in ``q``; ``s`` and the diagonal vanish
    outside v's 2-hop ball, so the rest are sums over the entries (v, n) of
    ``Ahat[U] Ahat``, in CHUNK_ROWS-node blocks of the unlabeled set U.
    O(nnz(Ahat^2) K + N K^2) time; no N x N array.
    """
    ahat, prop1, prop2, logits, (*_, g_z) = _forward(g, params, spec, labels)
    deg = g.degrees() + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    nodes = np.flatnonzero(g.unlabeled_mask)
    q = g_z[nodes]
    grams = np.stack([(prop2.T / deg) @ prop2, (prop2.T / deg) @ prop1, (prop1.T / deg) @ prop1])
    q22, q21, q11 = np.einsum("vk,gkl,vl->gv", q, grams, q)  # q^T G_xy q for every node
    sums = np.empty((nodes.size, 5))
    for r0 in range(0, nodes.size, CHUNK_ROWS):
        block = nodes[r0 : r0 + CHUNK_ROWS]
        two = ahat[block] @ ahat  # e = Ahat^2[v, n] over v's 2-hop ball; n = v is in each row
        row = np.repeat(np.arange(block.size), np.diff(two.indptr))
        v, n, e = block[row], two.indices, two.data
        at_v = n == v
        c = np.asarray(ahat[v, n]).ravel()
        a = np.einsum("ek,ek->e", prop2[n], g_z[v])
        b = np.einsum("ek,ek->e", prop1[n], g_z[v])
        zq = np.einsum("vk,vk->v", logits[block], g_z[block])[row]
        s = (np.where(at_v, zq, 0.0) + 2.0 * c * a + b * e) / (2.0 * deg[n])
        diag = (np.where(at_v, a, 0.0) + c * b) / deg[n] - s
        terms = np.stack([c * c / deg[n], np.where(at_v, s, 0.0), c * s * inv_sqrt[n], s * s, diag * diag])
        sums[r0 : r0 + block.size] = np.add.reduceat(terms, two.indptr[:-1], axis=1).T
    c2, s_v, cs, ss, dd = sums.T
    total = (q22 + 2.0 * ahat.diagonal()[nodes] * q21) / deg[nodes] + c2 * q11 + g.n_nodes * ss - dd
    total -= 2.0 * (s_v * inv_sqrt[nodes] * (q @ (prop2.T @ inv_sqrt)) + cs * (q @ (prop1.T @ inv_sqrt)))
    return [(int(v), float(np.sqrt(max(t, 0.0)))) for v, t in zip(nodes, total)]


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
    mask, n, X = g.unlabeled_mask, g.n_nodes, feature_operand(g)
    weights = _forward(g, params, spec, labels)[4][1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            step = sp.csr_matrix(([h, h], ([i, j], [j, i])), shape=(n, n))
            f_plus = attack_objective(normalize_adjacency(g.csr + step), X, params, labels, mask, spec, weights)
            f_minus = attack_objective(normalize_adjacency(g.csr - step), X, params, labels, mask, spec, weights)
            out[i, j] = out[j, i] = (f_plus - f_minus) / (4.0 * h)
    return out
