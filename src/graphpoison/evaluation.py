"""Victim retraining over seeds, summary statistics, and margin/gradient
diagnostics for loss-design analysis."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .gradients import per_node_gradients
from .graph import Graph, count_flips, normalize_adjacency
from .losses import LossSpec
from .models import SurrogateHyper, VictimHyper, forward_logits, margins, train_surrogate, train_victim

Array = np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Per-seed victim accuracies on one graph plus provenance metadata."""

    dataset: str
    attack: str
    budget_fraction: float
    per_seed_accuracy: list[float]
    mean: float
    ci95_halfwidth: float
    wall_clock_seconds: float
    flip_count: int
    degenerate_ci: bool = False
    config: dict = field(default_factory=dict)


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
    dataset: str = "",
    attack: str = "",
    budget_fraction: float = 0.0,
    config: dict | None = None,
) -> EvalReport:
    """Retrain the victim on ``poisoned`` once per seed and summarize accuracy.

    Accuracy is measured on the unlabeled pool against ground-truth labels.
    ``clean`` supplies the flip count; both graphs must share nodes and
    labels.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if clean.n_nodes != poisoned.n_nodes or not np.array_equal(clean.labels, poisoned.labels):
        raise ValueError("clean and poisoned graphs must share node set and labels")
    start = time.perf_counter()
    accs = []
    for s in seeds:
        _, acc = train_victim(poisoned, replace(victim_hyper, seed=int(s)))
        accs.append(acc)
    arr = np.asarray(accs)
    return EvalReport(
        dataset=dataset,
        attack=attack,
        budget_fraction=budget_fraction,
        per_seed_accuracy=[float(a) for a in accs],
        mean=float(arr.mean()),
        ci95_halfwidth=confidence_halfwidth(arr),
        wall_clock_seconds=time.perf_counter() - start,
        flip_count=count_flips(clean, poisoned),
        degenerate_ci=len(seeds) == 1,
        config=config or {},
    )


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
    logits = forward_logits(params, normalize_adjacency(g.csr), g.features)
    phi = margins(logits, g.labels)
    norms = per_node_gradients(g, params, spec, g.labels)
    return [(v, float(phi[v]), norm) for v, norm in norms]
