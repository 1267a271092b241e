"""The closed-form adjacency gradient against its numerical oracle.

Exits non-zero if any loss variant's relative error exceeds 1e-4.
"""

import sys

import numpy as np

from graphpoison import (
    CAWeightParams,
    LossSpec,
    finite_difference_gradient,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
)
from graphpoison.gradients import attack_factors, pair_scores, score_factors

TOLERANCE = 1e-4

g = sbm_graph((8, 8), p_in=0.4, p_out=0.1, seed=3)
params = train_surrogate(g)
labels = pseudo_labels(params, g)
schedule = CAWeightParams(4.5, 1.0, 1.0, 1.0)
every = slice(0, g.n_nodes)


def analytic_gradient(spec: LossSpec) -> np.ndarray:
    """All N x N pair scores by one rank-(4K+2) product of the stacked factors of one evaluation."""
    us, vs, s, _ = attack_factors(g, params, spec, labels)
    return pair_scores(*score_factors(us, vs, s), every, every)


print(f"{g.n_nodes}-node graph, checking every loss variant at h=1e-5:\n")
worst = 0.0
for name, spec in (
    ("nll", LossSpec("nll")),
    ("cw", LossSpec("cw", cw_kappa=1.0)),
    ("ca-nll", LossSpec("nll", schedule)),
    ("ca-cw", LossSpec("cw", schedule, cw_kappa=1.0)),
):
    numeric = finite_difference_gradient(g, params, spec, labels, h=1e-5)
    rel = np.abs(analytic_gradient(spec) - numeric).max() / np.abs(numeric).max()
    worst = max(worst, rel)
    print(f"  {name:7s} max relative error {rel:.2e}")

# Central differences converge quadratically: quartering the error when
# the step halves.
spec = LossSpec("nll")
exact = analytic_gradient(spec)
e1 = np.abs(finite_difference_gradient(g, params, spec, labels, h=1e-3) - exact).max()
e2 = np.abs(finite_difference_gradient(g, params, spec, labels, h=5e-4) - exact).max()
print(f"\nerror(h)/error(h/2) = {e1 / e2:.2f}  (quadratic convergence -> ~4)")

if worst > TOLERANCE:
    sys.exit(f"FAIL: max relative error {worst:.2e} exceeds {TOLERANCE:.0e}")
