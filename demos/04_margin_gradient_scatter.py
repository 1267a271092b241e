"""Where each loss puts its gradient mass, by classification margin.

Writes the scatter data as CSV (node_id,margin,grad_l2) and prints the
mean gradient norm for misclassified nodes versus nearly-flipped ones:
the plain loss wastes budget on nodes that are already lost, the
margin-weighted loss concentrates on winnable ones.
"""

import numpy as np

from graphpoison import CAWeightParams, LossSpec, margin_gradient_scatter, sbm_graph

g = sbm_graph((60, 60), p_in=0.1, p_out=0.02, feature_noise=1.5, seed=5)
schedule = CAWeightParams(alpha1=4.5, beta1=1.0, alpha2=1.0, beta2=1.0)

for name, spec in (("nll", LossSpec("nll")), ("ca-nll", LossSpec("nll", schedule))):
    rows = margin_gradient_scatter(g, spec)
    path = f"scatter_{name}.csv"
    with open(path, "w") as fh:
        fh.write("node_id,margin,grad_l2\n")
        fh.writelines(f"{v},{m:.10g},{n:.10g}\n" for v, m, n in rows)

    phi = np.array([r[1] for r in rows])
    norm = np.array([r[2] for r in rows])
    lost = norm[phi < -0.1].mean()
    winnable = norm[(phi > 0) & (phi < 0.3)].mean()
    resilient = norm[phi > 0.5].mean()
    print(f"{name}: wrote {path}")
    print(f"  mean |grad|  misclassified (phi < -0.1):   {lost:8.4f}")
    print(f"  mean |grad|  nearly flipped (0 < phi < .3): {winnable:8.4f}")
    print(f"  mean |grad|  resilient (phi > 0.5):         {resilient:8.4f}\n")
