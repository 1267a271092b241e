"""The closed-form adjacency gradient against its numerical oracle."""

import numpy as np

from graphpoison import (
    CAWeightParams,
    LossSpec,
    attack_gradient,
    finite_difference_gradient,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
)

g = sbm_graph((8, 8), p_in=0.4, p_out=0.1, seed=3)
params = train_surrogate(g)
labels = pseudo_labels(params, g)
schedule = CAWeightParams(4.5, 1.0, 1.0, 1.0)

print(f"{g.n_nodes}-node graph, checking every loss variant at h=1e-5:\n")
for name, spec in (
    ("nll", LossSpec("nll")),
    ("cw", LossSpec("cw", cw_kappa=1.0)),
    ("ca-nll", LossSpec("nll", True, schedule)),
    ("ca-cw", LossSpec("cw", True, schedule, cw_kappa=1.0)),
):
    analytic = attack_gradient(g, params, spec, labels)
    numeric = finite_difference_gradient(g, params, spec, labels, h=1e-5)
    rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
    print(f"  {name:7s} max relative error {rel:.2e}")

# Central differences converge quadratically: quartering the error when
# the step halves.
spec = LossSpec("nll")
exact = attack_gradient(g, params, spec, labels)
e1 = np.abs(finite_difference_gradient(g, params, spec, labels, h=1e-3) - exact).max()
e2 = np.abs(finite_difference_gradient(g, params, spec, labels, h=5e-4) - exact).max()
print(f"\nerror(h)/error(h/2) = {e1 / e2:.2f}  (quadratic convergence -> ~4)")
