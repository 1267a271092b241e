"""The attacker's surrogate: training, pseudo-labels, margins, and the
margin-dependent weight schedule."""

import numpy as np

from graphpoison import (
    CAWeightParams,
    ca_weights,
    forward_logits,
    margins,
    normalize_adjacency,
    pseudo_labels,
    sbm_graph,
    train_surrogate,
)

g = sbm_graph((60, 60), p_in=0.1, p_out=0.02, feature_noise=1.5, seed=5)
print(f"two-block graph: {g.n_nodes} nodes, {g.n_edges} edges, "
      f"{int(g.labeled_mask.sum())} labeled")

params = train_surrogate(g)
logits = forward_logits(params, normalize_adjacency(g.csr), g.features)

guess = pseudo_labels(params, g)
unl = g.unlabeled_mask
acc = (guess[unl] == g.labels[unl]).mean()
print(f"surrogate pseudo-label accuracy on unlabeled nodes: {acc:.3f}")

phi = margins(logits, g.labels)[unl]
print(f"margins against true labels: min {phi.min():.3f}, max {phi.max():.3f}, "
      f"{(phi < 0).sum()} nodes misclassified")

# The schedule concentrates weight near zero margin and decays both ways;
# the two branches let misclassified nodes decay at their own rate.
schedule = CAWeightParams(alpha1=4.5, beta1=1.0, alpha2=1.0, beta2=1.0)
print("\nmargin -> weight under (4.5, 1.0 | 1.0, 1.0):")
for m in (-2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0):
    w = ca_weights(np.array([m]), schedule)[0]
    bar = "#" * int(round(w * 10))
    print(f"  {m:+5.2f}  w={w:6.4f}  {bar}")
