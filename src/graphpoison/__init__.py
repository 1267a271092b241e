"""graphpoison: gradient-based graph structure poisoning attacks on GNN
node classifiers, with margin-weighted (cost-aware) attack losses."""

from .attack import (
    AttackConfig,
    AttackConstraints,
    AttackResult,
    constraint_check,
    dice_attack,
    meta_attack,
)
from .data import DatasetError, load_dataset, seeded_split
from .evaluation import EvalReport, evaluate, margin_gradient_scatter
from .experiment import ConfigError, ExperimentConfig, apply_flips, run_experiment
from .gradients import attack_objective, finite_difference_gradient, per_node_gradients
from .graph import (
    Graph,
    build_graph,
    count_flips,
    flip_edge,
    normalize_adjacency,
)
from .losses import CAWeightParams, LossSpec, ca_weights, loss_value
from .models import (
    SurrogateHyper,
    SurrogateParams,
    VictimHyper,
    forward_logits,
    margins,
    pseudo_labels,
    train_surrogate,
    train_victim,
)
from .synthetic import sbm_graph

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackConstraints",
    "AttackResult",
    "CAWeightParams",
    "ConfigError",
    "DatasetError",
    "EvalReport",
    "ExperimentConfig",
    "Graph",
    "LossSpec",
    "SurrogateHyper",
    "SurrogateParams",
    "VictimHyper",
    "apply_flips",
    "attack_objective",
    "build_graph",
    "ca_weights",
    "constraint_check",
    "count_flips",
    "dice_attack",
    "evaluate",
    "finite_difference_gradient",
    "flip_edge",
    "forward_logits",
    "load_dataset",
    "loss_value",
    "margin_gradient_scatter",
    "margins",
    "meta_attack",
    "normalize_adjacency",
    "per_node_gradients",
    "pseudo_labels",
    "run_experiment",
    "sbm_graph",
    "seeded_split",
    "train_surrogate",
    "train_victim",
]
