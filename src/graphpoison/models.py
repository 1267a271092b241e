"""Surrogate and victim models.

The attacker's surrogate is the linearized two-layer GCN
``softmax(Ahat^2 X W)`` trained by full-batch gradient descent on the
labeled nodes, run in the min(d, L) dimensional span of its labeled design
(one reduced QR per fit); the victim is a standard two-layer GCN with a ReLU,
dropout and Adam, retrained from scratch for evaluation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .graph import Graph, normalize_adjacency

Array = np.ndarray

# Victim features with at most this share of nonzero entries are multiplied
# as CSR: bag-of-words (~1%) and identity (1/N) features, not dense embeddings.
SPARSE_FEATURE_DENSITY = 0.1


def _check_int(name: str, value, low: int) -> None:
    """Reject a value that is not an integer (bools included) or is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be nonnegative" if low == 0 else f"{name} must be >= {low}")


def _check_bool(name: str, value) -> None:
    """Reject a switch that is not a bool (a numpy bool is one; 0, 1 and strings are not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_training(lr: float, epochs: int, weight_decay: float, seed: int) -> None:
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError("learning rate must be finite and positive")
    _check_int("epochs", epochs, 0)
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError("weight_decay must be finite and nonnegative")
    _check_int("seed", seed, 0)


@dataclass(frozen=True)
class SurrogateHyper:
    lr: float = 0.1
    epochs: int = 200
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_training(self.lr, self.epochs, self.weight_decay, self.seed)


@dataclass(frozen=True)
class SurrogateParams:
    """Weights of the linearized surrogate: a single d x K matrix."""

    weight: Array

    def __post_init__(self) -> None:
        W = np.asarray(self.weight, dtype=np.float64)
        if not np.all(np.isfinite(W)):
            raise ValueError("surrogate weights must be finite")
        object.__setattr__(self, "weight", W)


@dataclass(frozen=True)
class VictimHyper:
    hidden: int = 16
    lr: float = 0.01
    epochs: int = 200
    weight_decay: float = 5e-4
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_training(self.lr, self.epochs, self.weight_decay, self.seed)
        _check_int("hidden", self.hidden, 1)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def log_softmax(z: Array) -> Array:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(z: Array) -> Array:
    return np.exp(log_softmax(z))


def forward_logits(params: SurrogateParams, ahat: sp.spmatrix, features: Array) -> Array:
    """Pre-softmax logits Ahat (Ahat (X W)) of the linearized surrogate."""
    return ahat @ (ahat @ (features @ params.weight))


def train_surrogate(g: Graph, hyper: SurrogateHyper = SurrogateHyper()) -> SurrogateParams:
    """Fit the linearized surrogate on the labeled nodes.

    Full-batch gradient descent on the mean negative log-likelihood with an
    L2 penalty; deterministic given ``hyper.seed``. With ``epochs=0`` the
    returned weights equal the seeded initialization.

    The iterates are those of gradient descent on ``W``, computed in the
    r = min(d, L) dimensional span of the labeled design ``F = Ahat[lab]
    Ahat X`` (L x d). With the reduced QR ``F^T = Q R``, every gradient
    ``F^T (softmax - Y) / L`` lies in span(Q), so ``W_t = c_t W_0 + Q A_t``
    with ``c_t = (1 - lr wd)^t``: the part of ``W_0`` outside span(Q) never
    reaches the logits and only decays. The loop updates ``M_t = Q^T W_t``
    from the logits ``R^T M_t``. An epoch costs O(L r K) instead of
    O(L d K), plus one O(d L r) QR per fit.
    """
    d, k = g.features.shape[1], g.n_classes
    rng = np.random.default_rng(hyper.seed)
    scale = 1.0 / np.sqrt(d)
    W0 = rng.uniform(-scale, scale, size=(d, k))

    # The labeled rows of Ahat^2 X are fixed during training: the
    # logistic-regression design matrix, from the sparse 2-hop rows
    ahat = normalize_adjacency(g.csr)
    idx = np.flatnonzero(g.labeled_mask)
    f_lab = (ahat[idx] @ ahat) @ g.features
    q, r = scipy.linalg.qr(f_lab.T, mode="economic", check_finite=False)
    r_t = np.ascontiguousarray(r.T)  # logits are R^T M
    onehot = np.eye(k)[g.labels[idx]]

    decay = 1.0 - hyper.lr * hyper.weight_decay
    M0 = q.T @ W0
    M = M0
    for _ in range(hyper.epochs):
        probs = softmax(r_t @ M)
        M = decay * M - hyper.lr * (r @ (probs - onehot)) / len(idx)
    c = decay**hyper.epochs
    return SurrogateParams(c * W0 + q @ (M - c * M0))


def pseudo_labels(params: SurrogateParams, g: Graph) -> Array:
    """Ground-truth labels where visible, surrogate argmax elsewhere.

    Argmax ties resolve to the smallest class index.
    """
    logits = forward_logits(params, normalize_adjacency(g.csr), g.features)
    out = logits.argmax(axis=1)
    out[g.labeled_mask] = g.labels[g.labeled_mask]
    return out.astype(np.int64)


def margins(logits: Array, labels: Array) -> Array:
    """Classification margin z_label - max_{c != label} z_c per node.

    Negative exactly when the node is strictly misclassified; zero at a
    logit tie (counted as correct).
    """
    n, k = logits.shape
    if k < 2:
        raise ValueError("margins need at least two classes")
    rows = np.arange(n)
    return logits[rows, labels] - logits[rows, runner_up(logits, labels)]


def runner_up(logits: Array, labels: Array) -> Array:
    """Index of the best class other than ``labels`` (first on ties)."""
    masked = logits.copy()
    masked[np.arange(logits.shape[0]), labels] = -np.inf
    return masked.argmax(axis=1)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _receptive(rows: sp.csr_matrix) -> tuple[Array, sp.csr_matrix]:
    """The sorted nonzero columns of ``rows``, and ``rows`` restricted to them.

    Each row keeps its entries in the same order, so a product with the
    restricted matrix sums the same terms in the same order.
    """
    cols = np.unique(rows.indices)
    restricted = sp.csr_matrix(
        (rows.data, np.searchsorted(cols, rows.indices), rows.indptr), shape=(rows.shape[0], cols.size)
    )
    return cols, restricted


def train_victim(g: Graph, hyper: VictimHyper = VictimHyper()) -> float:
    """Train the two-layer GCN victim; return its accuracy on the unlabeled pool.

    Adam on the labeled-node NLL with L2 on both layers; dropout is applied
    to the input features and the hidden activations during training only.
    Accuracy is the eval-mode argmax of Ahat relu(Ahat X W1) W2 over the
    whole graph against ground truth. Deterministic given ``hyper.seed``.

    The loss reads only the 2-hop receptive field of the labeled nodes:
    the hidden rows ``N1``, the columns of ``Ahat[lab]``, and the feature
    rows ``N2``, the columns of ``Ahat[N1]``. Training runs on
    ``Ahat[lab, N1]``, ``Ahat[N1, N2]`` and ``X[N2]`` alone, so an epoch
    costs O(nnz(X[N2]) h + nnz(Ahat[N1]) h), plus nnz(X[N2]) + |N1| h
    dropout uniforms. Features whose share of nonzero entries is at most
    ``SPARSE_FEATURE_DENSITY`` are multiplied as CSR, in training and in
    the eval-mode forward. The input dropout mask is drawn only at the
    nonzeros of ``X[N2]``, one uniform each in row-major order, on both
    paths (a zero entry stays zero whatever its mask); then the |N1| x h
    hidden mask follows. No other unit reaches the loss, so each live unit
    keeps the same dropout law.
    """
    rng = np.random.default_rng(hyper.seed)
    d, k, h = g.features.shape[1], g.n_classes, hyper.hidden
    W1 = _glorot(rng, d, h)
    W2 = _glorot(rng, h, k)

    ahat_sp = normalize_adjacency(g.csr)
    idx = np.flatnonzero(g.labeled_mask)
    n1, a_lab = _receptive(ahat_sp[idx])  # Ahat[lab, N1]
    n2, a_12 = _receptive(ahat_sp[n1])  # Ahat[N1, N2]
    a_lab_t = a_lab.T.tocsr()  # Ahat is symmetric: Ahat[N1, lab]
    a_12_t = a_12.T.tocsr()
    onehot = np.eye(k)[g.labels[idx]]
    keep = 1.0 - hyper.dropout

    X = g.features
    sparse = np.count_nonzero(X) <= SPARSE_FEATURE_DENSITY * X.size
    if sparse:
        X = sp.csr_matrix(X)  # data holds the nonzeros in row-major order
    x2 = X[n2]
    nnz = x2.nnz if sparse else np.count_nonzero(x2)
    if sparse:
        xd = x2.copy()
    else:
        flat, scatter = np.flatnonzero(x2), np.zeros(x2.size)  # places the factors

    # Adam state
    m1 = np.zeros_like(W1); v1 = np.zeros_like(W1)
    m2 = np.zeros_like(W2); v2 = np.zeros_like(W2)
    b1, b2, eps = 0.9, 0.999, 1e-8

    for t in range(1, hyper.epochs + 1):
        factors = (rng.random(nnz) < keep) / keep
        if sparse:
            np.multiply(x2.data, factors, out=xd.data)
        else:
            scatter[flat] = factors
            xd = x2 * scatter.reshape(x2.shape)
        s1 = a_12 @ (xd @ W1)
        hidden = np.maximum(s1, 0.0)
        mask_h = (rng.random(hidden.shape) < keep) / keep
        hd = hidden * mask_h
        ah_lab = a_lab @ hd
        g_z = (softmax(ah_lab @ W2) - onehot) / len(idx)

        g_w2 = ah_lab.T @ g_z + hyper.weight_decay * W2
        g_hd = a_lab_t @ (g_z @ W2.T)
        g_hidden = g_hd * mask_h
        g_s1 = g_hidden * (s1 > 0.0)
        g_w1 = xd.T @ (a_12_t @ g_s1) + hyper.weight_decay * W1

        for W, gw, m, v in ((W1, g_w1, m1, v1), (W2, g_w2, m2, v2)):
            m *= b1; m += (1 - b1) * gw
            v *= b2; v += (1 - b2) * gw * gw
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            W -= hyper.lr * mhat / (np.sqrt(vhat) + eps)

    logits = ahat_sp @ (np.maximum(ahat_sp @ (X @ W1), 0.0) @ W2)
    unl = g.unlabeled_mask
    return float((logits[unl].argmax(axis=1) == g.labels[unl]).mean())
