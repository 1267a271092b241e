"""Attack losses: negative log-likelihood and the clamped-margin (CW)
loss, each optionally weighted by the cost-aware schedule.

The per-node term is ``-log softmax(z)[y]`` (NLL) or ``max(m, -kappa)``
(CW), with ``m`` the margin of the label over the best other class. The
cost-aware weight of a node is ``alpha * exp(-beta * m^2)`` with separate
``(alpha, beta)`` pairs for nonnegative and negative margins, so a run can
prioritize nearly-flipped nodes while discounting both resilient and
already-misclassified ones. Weights are a priority schedule, not part of
the differentiated objective: the gradient engine treats them as
constants. :func:`loss_value` is the one place these terms are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import check_fields, log_softmax, margins

Array = np.ndarray

NLL = "nll"
CW = "cw"
_BASES = (NLL, CW)


@dataclass(frozen=True)
class CAWeightParams:
    """Weight-schedule hyperparameters.

    ``alpha1/beta1`` apply where the margin is >= 0 (zero margin counts as
    the not-yet-misclassified branch), ``alpha2/beta2`` where it is < 0.
    Betas may be zero, which makes the schedule constant per branch.
    """

    alpha1: float = 1.0
    beta1: float = 1.0
    alpha2: float = 1.0
    beta2: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("alphas must be positive")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("betas must be nonnegative")


@dataclass(frozen=True)
class LossSpec:
    """Which base loss to attack with: ``base`` is ``"nll"`` or ``"cw"``.

    The cost-aware schedule is on exactly when ``ca_params`` is set;
    ``cw_kappa`` is the CW clamp and is read only by the CW base.
    """

    base: str = NLL
    ca_params: CAWeightParams | None = None
    cw_kappa: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.base not in _BASES:
            raise ValueError(f"base must be one of {_BASES}, got {self.base!r}")
        if self.cw_kappa < 0:
            raise ValueError("cw_kappa must be nonnegative")


def _check_mask(mask: Array) -> Array:
    raw = np.asarray(mask)
    if raw.dtype != bool and not np.isin(raw, (0, 1)).all():
        raise ValueError("mask must be boolean per node, not node indices")
    mask = raw.astype(bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    return mask


def ca_weights(margin_values: Array, params: CAWeightParams) -> Array:
    """alpha * exp(-beta * margin^2) with the branch picked by the margin sign."""
    phi = np.asarray(margin_values, dtype=np.float64)
    negative = phi < 0
    alpha = np.where(negative, params.alpha2, params.alpha1)
    beta = np.where(negative, params.beta2, params.beta1)
    return alpha * np.exp(-beta * phi * phi)


def resolve_weights(margin_values: Array, spec: LossSpec) -> Array:
    """Per-node stop-gradient weights for ``spec`` at the given margins."""
    if spec.ca_params is not None:
        return ca_weights(margin_values, spec.ca_params)
    return np.ones(len(margin_values))


def loss_value(
    logits: Array, labels: Array, mask: Array, spec: LossSpec, weights: Array | None = None
) -> tuple[float, Array]:
    """Weighted base loss of ``spec``: per-node ``w(v) * loss(v)``, summed over ``mask``.

    The attack drives the CW term down; a node stops contributing once its
    margin falls below ``-cw_kappa``. Weights come from :func:`resolve_weights`
    at the margins of ``logits`` (the cost-aware schedule, or ones). Passing
    precomputed ``weights`` freezes the stop-gradient weights when a caller
    (the finite-difference oracle) re-evaluates the loss at perturbed adjacencies.
    """
    mask = _check_mask(mask)
    if weights is None or spec.base == CW:
        phi = margins(logits, labels)
    if weights is None:
        weights = resolve_weights(phi, spec)
    if spec.base == NLL:
        per_node = -log_softmax(logits)[np.arange(logits.shape[0]), labels]
    else:
        per_node = np.maximum(phi, -spec.cw_kappa)
    weighted = weights * per_node
    return float(weighted[mask].sum()), weighted
