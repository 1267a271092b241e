"""End-to-end poisoning on a synthetic graph: random baseline vs gradient
attack vs the margin-weighted gradient attack, evaluated over ten victim
retrainings each."""

import numpy as np

from graphpoison import (
    AttackConfig,
    CAWeightParams,
    LossSpec,
    dice_attack,
    evaluate,
    meta_attack,
    sbm_graph,
)

g = sbm_graph((50, 50), p_in=0.15, p_out=0.02, feature_noise=2.0, seed=1)
budget = int(0.10 * g.n_edges)
seeds = range(10)
print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges; budget {budget} flips (10%)\n")

clean = evaluate(g, g, seeds=seeds)
print(f"clean    mean accuracy {clean.mean:.4f} +- {clean.ci95_halfwidth:.4f}")

schedule = CAWeightParams(alpha1=4.5, beta1=1.0, alpha2=1.0, beta2=1.0)
runs = [
    ("dice", lambda: dice_attack(g, AttackConfig(budget=budget, seed=0))),
    ("ce", lambda: meta_attack(g, AttackConfig(budget=budget, loss_spec=LossSpec("nll")))),
    ("ca-ce", lambda: meta_attack(
        g, AttackConfig(budget=budget, loss_spec=LossSpec("nll", schedule)))),
]
for name, run in runs:
    result = run()
    report = evaluate(g, result.poisoned, seeds=seeds)
    adds = sum(op == "add" for _, _, op in result.flips)
    print(f"{name:8s} mean accuracy {report.mean:.4f} +- {report.ci95_halfwidth:.4f}  "
          f"({adds} adds, {len(result.flips) - adds} deletes)")
