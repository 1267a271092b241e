"""Victim retraining over seeds with summary statistics, and the
margin/gradient diagnostic for loss design. These only measure: the
dataset, attack and config of a report come from ``experiment.report_payload``."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gradients import per_node_gradients
from .graph import Graph, count_flips, normalize_adjacency
from .losses import LossSpec
from .models import SurrogateHyper, VictimHyper, feature_operand, forward_logits, margins, train_surrogate, train_victim

Array = np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Victim accuracy per seed on one graph and the number of pairs flipped
    against the clean graph; the mean and 95% CI half-width (0 for one seed)
    are derived from the accuracies."""

    per_seed_accuracy: list[float]
    flip_count: int

    @property
    def mean(self) -> float:
        return float(np.asarray(self.per_seed_accuracy).mean())

    @property
    def ci95_halfwidth(self) -> float:
        return confidence_halfwidth(np.asarray(self.per_seed_accuracy))


def confidence_halfwidth(values: Array) -> float:
    """1.96 * s / sqrt(n) with the sample standard deviation; 0 for n == 1."""
    if values.size <= 1:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def evaluate(
    clean: Graph,
    poisoned: Graph,
    victim_hyper: VictimHyper = VictimHyper(),
    seeds=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
) -> EvalReport:
    """Retrain the victim on ``poisoned`` once per seed and summarize accuracy.

    Accuracy is measured on the unlabeled pool against ground-truth labels.
    Every seed must be a nonnegative integer, not a bool; all are checked
    before the first fit. ``clean`` supplies only the flip count; both
    graphs must share nodes and labels.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if clean.n_nodes != poisoned.n_nodes or not np.array_equal(clean.labels, poisoned.labels):
        raise ValueError("clean and poisoned graphs must share node set and labels")
    hypers = [replace(victim_hyper, seed=s) for s in seeds]
    accs = [train_victim(poisoned, hyper) for hyper in hypers]
    return EvalReport(accs, count_flips(clean, poisoned))


def margin_gradient_scatter(
    g: Graph,
    spec: LossSpec,
    surrogate_hyper: SurrogateHyper = SurrogateHyper(),
) -> list[tuple[int, float, float]]:
    """(node, margin, gradient-norm) for every unlabeled node on the clean graph.

    Margins, cost-aware weights, and per-node losses all use ground-truth
    labels here: this is the designer-side diagnostic of where a loss puts
    its gradient mass, so misclassified nodes must show up with negative
    margins (against pseudo-labels they never could).
    """
    params = train_surrogate(g, surrogate_hyper)
    phi = margins(forward_logits(params, normalize_adjacency(g.csr), feature_operand(g)), g.labels)
    norms = per_node_gradients(g, params, spec, g.labels)
    return [(v, float(phi[v]), norm) for v, norm in norms]
