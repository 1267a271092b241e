"""Workload definitions and the seeded input generator.

Every workload is a seeded 7-class SBM (Cora is not staged, so a Cora-sized
block model stands in for it). The generator writes a plain dataset
directory -- ``edges.txt``, ``labels.txt``, ``features.csv`` -- so each
measured run goes through ``load_dataset`` exactly as ``graphpoison run``
does.

Run as a script it is the benchmark's set-up step:

    python3 perfbench/bench_inputs.py --workload meta-cora --seed 1 --out DIR

and prints the node and edge counts and a digest of the files as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from graphpoison.data import EDGES_FILE, FEATURES_FILE, LABELS_FILE
from graphpoison.experiment import ExperimentConfig
from graphpoison.synthetic import sbm_graph

N_CLASSES = 7
BOW_DIM = 1433  # Cora's vocabulary size
BOW_BACKGROUND = 0.008  # per-word probability outside a class's topic
BOW_TOPIC = 0.03  # per-word probability of a class's topic words
BOW_TOPIC_SHARE = 0.05  # share of the vocabulary that is one class's topic


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input shape plus the run configuration.

    ``flips`` is the exact number of flips requested; the config's
    ``budget_fraction`` is derived from the generated edge count so that
    ``floor(budget_fraction * |E|)`` equals it on every seed.
    """

    name: str
    block_size: int
    p_in: float
    p_out: float
    flips: int
    config: dict
    bow_features: bool = False


# Homophily is about 0.8 and the mean degree about 4.2, as in Cora.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline configuration: greedy cost-aware NLL,
        # retraining every flip, fixed pseudo-labels, singleton rule only.
        Workload(
            "meta-cora",
            block_size=390,
            p_in=0.0083,
            p_out=0.00035,
            flips=4,
            config=dict(
                attack="meta", base="nll", ca_enabled=True, alpha1=4.5,
                retrain_every=1, degree_test=False, seeds=(0, 1, 2),
            ),
        ),
        # About twice Cora's node count: cost-aware CW with the power-law
        # degree test, retraining every 5 flips. The test keeps its default
        # threshold, which rarely rejects within two flips: a threshold low
        # enough to reject most candidates makes the rejects before each
        # accepted flip roughly geometric, and s_per_flip then varies by
        # 10-20% between seeds.
        Workload(
            "meta-large",
            block_size=720,
            p_in=0.0045,
            p_out=0.00019,
            flips=2,
            config=dict(
                attack="meta", base="cw", ca_enabled=True, alpha1=4.5,
                retrain_every=5, degree_test=True, seeds=(0, 1),
            ),
        ),
        # DICE plus multi-seed victim evaluation on Cora-like 1433-dim
        # bag-of-words features; no gradient work at all.
        Workload(
            "dice-eval",
            block_size=390,
            p_in=0.0083,
            p_out=0.00035,
            flips=20,
            config=dict(attack="dice", victim_epochs=50, seeds=(0, 1)),
            bow_features=True,
        ),
    )
}


def bow_features(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sparse binary bag-of-words rows whose topic words depend on the class."""
    topics = rng.random((N_CLASSES, BOW_DIM)) < BOW_TOPIC_SHARE
    probs = np.where(topics, BOW_TOPIC, BOW_BACKGROUND)
    return (rng.random((labels.size, BOW_DIM)) < probs[labels]).astype(np.float64)


def generate(w: Workload, seed: int, out_dir: str) -> dict:
    """Write the dataset directory of workload ``w`` for ``seed``.

    Returns the node and edge counts and a sha256 of the files written, so
    that repeated set-ups can be checked to give the same inputs.
    """
    g = sbm_graph(
        (w.block_size,) * N_CLASSES, p_in=w.p_in, p_out=w.p_out, feature_noise=1.0, seed=seed
    )
    if w.bow_features:
        features = bow_features(g.labels, np.random.default_rng([seed, BOW_DIM]))
        rows = [",".join(map(str, row)) for row in features.astype(np.int8).tolist()]
    else:
        rows = [",".join(map(repr, row)) for row in g.features.tolist()]
    iu, ju = np.nonzero(np.triu(g.adjacency, k=1))
    files = {
        EDGES_FILE: "".join(f"{i} {j}\n" for i, j in zip(iu.tolist(), ju.tolist())),
        LABELS_FILE: "".join(f"{y}\n" for y in g.labels.tolist()),
        FEATURES_FILE: "\n".join(rows) + "\n",
    }
    digest = hashlib.sha256()
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        digest.update(text.encode())
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    return {"nodes": g.n_nodes, "edges": int(iu.size), "sha256": digest.hexdigest()}


def experiment_config(w: Workload, dataset: str, n_edges: int, output: str) -> ExperimentConfig:
    """The run configuration of ``w`` on a generated graph with ``n_edges`` edges."""
    return ExperimentConfig(
        dataset=dataset,
        budget_fraction=(w.flips + 0.5) / n_edges,
        output=output,
        **w.config,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(generate(WORKLOADS[args.workload], args.seed, args.out)))


if __name__ == "__main__":
    main()
