"""Surrogate and victim models.

The attacker's surrogate is the linearized two-layer GCN
``softmax(Ahat^2 X W)`` trained by full-batch gradient descent on the
labeled nodes; the victim is a standard two-layer GCN with a ReLU,
dropout and Adam, retrained from scratch for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, normalize_adjacency

Array = np.ndarray


def _check_training(lr: float, epochs: int, weight_decay: float, seed: int) -> None:
    if not lr > 0:
        raise ValueError("learning rate must be positive")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if weight_decay < 0:
        raise ValueError("weight_decay must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


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
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class VictimParams:
    """Two-layer GCN weights (d x h and h x K)."""

    w1: Array
    w2: Array


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
    """
    if not g.labeled_mask.any():
        raise ValueError("training requires at least one labeled node")
    d, k = g.features.shape[1], g.n_classes
    rng = np.random.default_rng(hyper.seed)
    scale = 1.0 / np.sqrt(d)
    W = rng.uniform(-scale, scale, size=(d, k))

    # Ahat^2 X is fixed during training: the logistic-regression design matrix
    ahat = normalize_adjacency(g.csr)
    f2 = ahat @ (ahat @ g.features)
    idx = np.flatnonzero(g.labeled_mask)
    f2_lab = f2[idx]
    y = g.labels[idx]
    onehot = np.eye(k)[y]

    for _ in range(hyper.epochs):
        probs = softmax(f2_lab @ W)
        grad = f2_lab.T @ (probs - onehot) / len(idx) + hyper.weight_decay * W
        W = W - hyper.lr * grad
    return SurrogateParams(W)


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
    z_true = logits[rows, labels]
    masked = logits.copy()
    masked[rows, labels] = -np.inf
    return z_true - masked.max(axis=1)


def runner_up(logits: Array, labels: Array) -> Array:
    """Index of the best class other than ``labels`` (first on ties)."""
    masked = logits.copy()
    masked[np.arange(logits.shape[0]), labels] = -np.inf
    return masked.argmax(axis=1)


def victim_logits(params: VictimParams, ahat_sp: sp.spmatrix, features: Array) -> Array:
    """Eval-mode forward pass Ahat relu(Ahat X W1) W2."""
    h = np.maximum(ahat_sp @ (features @ params.w1), 0.0)
    return ahat_sp @ (h @ params.w2)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def train_victim(g: Graph, hyper: VictimHyper = VictimHyper()) -> tuple[VictimParams, float]:
    """Train the two-layer GCN victim and score it on the unlabeled nodes.

    Adam on the labeled-node NLL with L2 on both layers; dropout is applied
    to the input features and the hidden activations during training only.
    Returns the trained parameters and accuracy against ground truth on the
    unlabeled pool. Deterministic given ``hyper.seed``.
    """
    if not g.labeled_mask.any():
        raise ValueError("training requires at least one labeled node")
    rng = np.random.default_rng(hyper.seed)
    d, k, h = g.features.shape[1], g.n_classes, hyper.hidden
    W1 = _glorot(rng, d, h)
    W2 = _glorot(rng, h, k)

    ahat_sp = normalize_adjacency(g.csr)
    X = g.features
    idx = np.flatnonzero(g.labeled_mask)
    onehot = np.eye(k)[g.labels[idx]]
    keep = 1.0 - hyper.dropout

    # Adam state
    m1 = np.zeros_like(W1); v1 = np.zeros_like(W1)
    m2 = np.zeros_like(W2); v2 = np.zeros_like(W2)
    b1, b2, eps = 0.9, 0.999, 1e-8

    for t in range(1, hyper.epochs + 1):
        if hyper.dropout > 0.0:
            xd = X * ((rng.random(X.shape) < keep) / keep)
        else:
            xd = X
        s1 = ahat_sp @ (xd @ W1)
        hidden = np.maximum(s1, 0.0)
        if hyper.dropout > 0.0:
            mask_h = (rng.random(hidden.shape) < keep) / keep
            hd = hidden * mask_h
        else:
            hd = hidden
        ah = ahat_sp @ hd
        logits = ah @ W2

        g_z = np.zeros_like(logits)
        g_z[idx] = (softmax(logits[idx]) - onehot) / len(idx)

        g_w2 = ah.T @ g_z + hyper.weight_decay * W2
        g_hd = ahat_sp @ (g_z @ W2.T)
        g_hidden = g_hd * mask_h if hyper.dropout > 0.0 else g_hd
        g_s1 = g_hidden * (s1 > 0.0)
        g_w1 = xd.T @ (ahat_sp @ g_s1) + hyper.weight_decay * W1

        for W, gw, m, v in ((W1, g_w1, m1, v1), (W2, g_w2, m2, v2)):
            m *= b1; m += (1 - b1) * gw
            v *= b2; v += (1 - b2) * gw * gw
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            W -= hyper.lr * mhat / (np.sqrt(vhat) + eps)

    params = VictimParams(W1, W2)
    logits = victim_logits(params, ahat_sp, X)
    unl = g.unlabeled_mask
    acc = float((logits[unl].argmax(axis=1) == g.labels[unl]).mean())
    return params, acc
