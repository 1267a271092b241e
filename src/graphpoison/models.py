"""Surrogate and victim models.

The attacker's surrogate is the linearized two-layer GCN
``softmax(Ahat^2 X W)`` trained by full-batch gradient descent on the
labeled nodes, on the narrower side of its L x d labeled design; the victim
is a standard two-layer GCN with a ReLU, dropout and Adam, retrained from
scratch for evaluation. Both multiply sparse features as their CSR form.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _read_only, normalize_adjacency

Array = np.ndarray
_PROPAGATION: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # graph -> its Ahat, see propagation
_FIT_INPUTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # params -> their fit inputs, see train_surrogate

_KINDS = {bool: "a bool", int: "an integer", float: "a number", str: "a string"}


def check_type(name: str, value, kind):
    """Return ``value`` as a field annotated ``kind`` stores it; ValueError if it does not fit.

    The one type rule of every config: a bool, Python's or numpy's, fits only
    ``bool``; an integer fits ``int`` and ``float``; ``float`` takes any
    finite real; ``tuple`` is a list or tuple of integers; any other kind (a
    nested config, ``X | None``) is checked by ``isinstance``. A numpy scalar
    is stored as its ``.item()``, a Python value as given.
    """
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list of integers, got {value!r}")
        return tuple(check_type(name, item, int) for item in value)
    if isinstance(value, np.generic):
        value = value.item()
    if kind is bool:
        fits = isinstance(value, bool)
    else:
        fits = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if not fits:
        wanted = _KINDS.get(kind) or f"of type {getattr(kind, '__name__', kind)}"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # nan, an infinity, or an int no float holds
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_fields(config) -> None:
    """Run :func:`check_type` on every field of a dataclass by its resolved annotation."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        object.__setattr__(config, f.name, check_type(f.name, getattr(config, f.name), hints[f.name]))


def _check_training(hyper) -> None:
    """The range rules shared by the two training configs."""
    if hyper.lr <= 0:
        raise ValueError("learning rate must be positive")
    for name in ("epochs", "weight_decay", "seed"):
        if getattr(hyper, name) < 0:
            raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class SurrogateHyper:
    lr: float = 0.1
    epochs: int = 200
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        _check_training(self)


@dataclass(frozen=True, eq=False)
class SurrogateParams:
    """Weights of the linearized surrogate: a single d x K matrix.

    Params compare by identity, so each one fit by :func:`train_surrogate`
    keys what it was fit on."""

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
        check_fields(self)
        _check_training(self)
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def log_softmax(z: Array) -> Array:
    # The max, the exp-sum and the log run class-major, along the long axis,
    # where numpy's row-wise reductions over a few classes run one short loop
    # per row. A max reads its entries in any order to the same value; numpy
    # sums fewer than 8 entries of a row one after another, as the class-major
    # sum adds the class rows, and from 8 on it unrolls a row's sum, so wider
    # rows keep that sum.
    t = np.ascontiguousarray(z.T)
    t -= t.max(axis=0)
    e = np.exp(t)
    lse = np.log(e.sum(axis=0) if t.shape[0] < 8 else np.ascontiguousarray(e.T).sum(axis=1))
    return np.subtract(t.T, lse[:, None], out=np.empty(t.T.shape))


def softmax(z: Array) -> Array:
    out = log_softmax(z)
    return np.exp(out, out=out)


def forward_logits(params: SurrogateParams, ahat: sp.spmatrix, features: Array | sp.spmatrix) -> Array:
    """Pre-softmax logits Ahat (Ahat (X W)) of the linearized surrogate; ``features`` dense or CSR."""
    return ahat @ (ahat @ (features @ params.weight))


def feature_operand(g: Graph) -> Array | sp.csr_matrix:
    """``g.sparse_features`` if set, else ``g.features``: the operand of every product with the features."""
    return g.features if g.sparse_features is None else g.sparse_features


def propagation(g: Graph) -> sp.csr_matrix:
    """Read-only ``normalize_adjacency(g.csr)``, derived once per graph value and shared by every reader of Ahat.

    Keyed weakly by identity: a graph ``flip_edge`` derives is a new key, and an entry goes with its graph."""
    ahat = _PROPAGATION.get(g)
    if ahat is None:
        ahat = _PROPAGATION[g] = normalize_adjacency(g.csr)
        _read_only(ahat.data, ahat.indices, ahat.indptr)
    return ahat


def _labeled_design(g: Graph) -> Array:
    """``Ahat[lab] Ahat X`` (L x d); scipy sums each entry in the same order, so a CSR X gives the dense bits."""
    ahat = propagation(g)
    design = (ahat[np.flatnonzero(g.labeled_mask)] @ ahat) @ feature_operand(g)
    return design.toarray() if sp.issparse(design) else design


def train_surrogate(
    g: Graph, hyper: SurrogateHyper = SurrogateHyper(), prior: SurrogateParams | None = None
) -> SurrogateParams:
    """Fit the linearized surrogate on the labeled nodes.

    Full-batch gradient descent on the mean negative log-likelihood with an
    L2 penalty; deterministic given ``hyper.seed``. With ``epochs=0`` the
    returned weights equal the seeded initialization.

    With the labeled design ``F = Ahat[lab] Ahat X`` (L x d), ``decay = 1 -
    lr wd`` and ``step = lr / L``, the loop runs on the narrower side of F.
    With d <= L, on ``W <- decay W - step F^T (softmax(F W) - Y)``: two
    L d K products per epoch. With d > L, on the dual ``S <- decay S + D``,
    ``D = softmax(Z) - Y``, so ``W_t = decay^t W_0 - step F^T S_t``; the
    logits follow as ``Z <- decay Z - step G D`` from the Gram ``G = F F^T``,
    formed once: one L L K product per epoch and one L d L product per fit.
    Nothing is inverted, so a rank-deficient design needs no special case.

    The fit reads only the bytes of F, the labels of the labeled nodes,
    ``n_classes`` and ``hyper``. When all four equal what ``prior`` was fit
    on by this function, it returns ``prior`` itself, the weights a new fit
    would give bit for bit. A flip changes F only in the labeled rows within
    two hops of its endpoints, so a greedy refit after a flip far from
    every labeled node costs F alone.
    """
    design = _labeled_design(g)
    labels = g.labels[g.labeled_mask]
    inputs = (design.shape, design.tobytes(), labels.tobytes(), g.n_classes, hyper)
    if prior is not None and _FIT_INPUTS.get(prior) == inputs:
        return prior
    d, k = g.features.shape[1], g.n_classes
    scale = 1.0 / np.sqrt(d)
    W = np.random.default_rng(hyper.seed).uniform(-scale, scale, size=(d, k))  # W_0

    onehot = np.eye(k)[labels]
    decay, step = 1.0 - hyper.lr * hyper.weight_decay, hyper.lr / len(design)
    if d <= len(design):
        for _ in range(hyper.epochs):
            W = decay * W - step * (design.T @ (softmax(design @ W) - onehot))
    else:
        gram = design @ design.T
        Z, S = design @ W, np.zeros_like(onehot)
        for _ in range(hyper.epochs):
            D = softmax(Z) - onehot
            S = decay * S + D
            Z = decay * Z - step * (gram @ D)
        W = decay**hyper.epochs * W - step * (design.T @ S)
    params = SurrogateParams(W)
    _FIT_INPUTS[params] = inputs
    return params


def pseudo_labels(params: SurrogateParams, g: Graph) -> Array:
    """Ground-truth labels where visible, surrogate argmax elsewhere (ties to the smallest class index)."""
    logits = forward_logits(params, propagation(g), feature_operand(g))
    return np.where(g.labeled_mask, g.labels, logits.argmax(axis=1)).astype(np.int64)


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
    ``Ahat[lab, N1]``, ``Ahat[N1, N2]`` and ``X[N2]`` alone. The first
    layer is associated by the narrower operand, d = X.shape[1] against
    h = ``hyper.hidden``:

    - d < h: ``AX = Ahat[N1, N2] X_d`` then ``s1 = AX W1``, and the
      backward reuses it, ``dW1 = AX^T ds1``. An epoch costs one sparse
      product of nnz(Ahat[N1, N2]) d and two |N1| d h GEMMs.
    - d >= h: ``s1 = Ahat[N1, N2] (X_d W1)`` and
      ``dW1 = X_d^T (Ahat[N2, N1] ds1)``. An epoch costs two sparse
      products of nnz(Ahat[N1, N2]) h and two products of nnz(X[N2]) h.

    Both add the second layer's O(nnz(Ahat[lab]) h + |lab| h K), plus
    nnz(X[N2]) + |N1| h dropout uniforms. Features with a CSR form,
    ``g.sparse_features`` (at most ``graph.SPARSE_FEATURE_DENSITY`` of them
    nonzero), are multiplied as that CSR matrix, in training and in the
    eval-mode forward; a fit never converts X itself. The input dropout
    mask is drawn only at the nonzeros of ``X[N2]``, one uniform each in
    row-major order, on both paths (a zero entry stays zero whatever its
    mask); then the |N1| x h hidden mask follows. No other unit reaches the
    loss, so each live unit keeps the same dropout law.
    """
    rng = np.random.default_rng(hyper.seed)
    d, k, h = g.features.shape[1], g.n_classes, hyper.hidden
    W1 = _glorot(rng, d, h)
    W2 = _glorot(rng, h, k)

    ahat_sp = propagation(g)
    idx = np.flatnonzero(g.labeled_mask)
    n1, a_lab = _receptive(ahat_sp[idx])  # Ahat[lab, N1]
    n2, a_12 = _receptive(ahat_sp[n1])  # Ahat[N1, N2]
    a_lab_t = a_lab.T.tocsr()  # Ahat is symmetric: Ahat[N1, lab]
    narrow = d < h  # multiply Ahat[N1, N2] by X_d, not by X_d W1
    a_12_t = None if narrow else a_12.T.tocsr()
    onehot = np.eye(k)[g.labels[idx]]
    keep = 1.0 - hyper.dropout

    X = feature_operand(g)  # CSR data: the nonzeros in row-major order
    sparse = sp.issparse(X)
    x2 = X[n2]
    nnz = x2.nnz if sparse else np.count_nonzero(x2)
    if sparse:
        xd = x2.copy()
    else:
        xd = np.empty(x2.shape)
        flat = slice(None) if nnz == x2.size else np.flatnonzero(x2)
        scatter = np.zeros(x2.size)  # places the factors
    factors, mask_h = np.empty(nnz), np.empty((n1.size, h))  # dropout, redrawn in place

    # Adam state
    m1 = np.zeros_like(W1); v1 = np.zeros_like(W1)
    m2 = np.zeros_like(W2); v2 = np.zeros_like(W2)
    b1, b2, eps = 0.9, 0.999, 1e-8

    for t in range(1, hyper.epochs + 1):
        rng.random(out=factors)
        np.multiply(np.less(factors, keep, out=factors), 1.0 / keep, out=factors)
        if sparse:
            np.multiply(x2.data, factors, out=xd.data)
        else:
            scatter[flat] = factors
            np.multiply(x2, scatter.reshape(x2.shape), out=xd)
        if narrow:
            ax = a_12 @ xd
            s1 = ax @ W1
        else:
            s1 = a_12 @ (xd @ W1)
        hidden = np.maximum(s1, 0.0)
        rng.random(out=mask_h)
        np.multiply(np.less(mask_h, keep, out=mask_h), 1.0 / keep, out=mask_h)
        hd = hidden * mask_h
        ah_lab = a_lab @ hd
        g_z = (softmax(ah_lab @ W2) - onehot) / len(idx)

        g_w2 = ah_lab.T @ g_z + hyper.weight_decay * W2
        g_hd = a_lab_t @ (g_z @ W2.T)
        g_hidden = g_hd * mask_h
        g_s1 = g_hidden * (s1 > 0.0)
        g_w1 = (ax.T @ g_s1 if narrow else xd.T @ (a_12_t @ g_s1)) + hyper.weight_decay * W1

        for W, gw, m, v in ((W1, g_w1, m1, v1), (W2, g_w2, m2, v2)):
            m *= b1; m += (1 - b1) * gw
            v *= b2; v += (1 - b2) * gw * gw
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            W -= hyper.lr * mhat / (np.sqrt(vhat) + eps)

    logits = ahat_sp @ (np.maximum(ahat_sp @ (X @ W1), 0.0) @ W2)
    unl = g.unlabeled_mask
    return float((logits[unl].argmax(axis=1) == g.labels[unl]).mean())
