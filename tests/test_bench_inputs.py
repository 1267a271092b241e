"""Guard: the library reads the dataset files the benchmark writes.

``perfbench/bench_inputs.py`` writes each workload's dataset directory
with its own writers (``repr`` for Gaussian features, integers for
bag-of-words ones) and builds each run's config from ``ExperimentConfig``.
A change to the loader or the config that breaks either breaks the
benchmark without failing anything else, so this test loads the module
(read-only, by path) and reads a shrunk copy of every workload back.
It also runs every full-size seed-1 workload once and checks the
benchmark's flip/accuracy fingerprint, the exactness oracle of every
speed change, and pins how many of meta-cora's refits reuse their weights.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from graphpoison import load_dataset, sbm_graph
from graphpoison.experiment import attack_budget, flips_path, load_graph, resolve_output, run_attack, run_experiment

from .conftest import REPO_ROOT

INPUTS_PATH = os.path.join(REPO_ROOT, "perfbench", "bench_inputs.py")
BLOCK_SIZE = 60  # 7 blocks of 60 nodes instead of 390 or 720


@pytest.fixture(scope="module")
def bench_inputs():
    if not os.path.exists(INPUTS_PATH):
        pytest.skip("perfbench/bench_inputs.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_inputs_under_test", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _shrunk(full):
    """Workload ``full`` on blocks of BLOCK_SIZE nodes, at the same mean degree."""
    scale = full.block_size / BLOCK_SIZE
    return dataclasses.replace(full, block_size=BLOCK_SIZE, p_in=full.p_in * scale, p_out=full.p_out * scale)


def test_every_workload_loads_as_generated(bench_inputs, tmp_path):
    for name, full in bench_inputs.WORKLOADS.items():
        w = _shrunk(full)
        d = str(tmp_path / name)
        info = bench_inputs.generate(w, 1, d)
        g = load_dataset(d)
        assert (g.n_nodes, g.n_edges) == (info["nodes"], info["edges"]), name

        # the generator's own graph, read back bit for bit
        ref = sbm_graph((w.block_size,) * bench_inputs.N_CLASSES, w.p_in, w.p_out, 1.0, seed=1)
        assert np.array_equal(g.labels, ref.labels), name
        assert np.array_equal(g.csr.toarray(), ref.adjacency), name
        if w.bow_features:
            features = bench_inputs.bow_features(ref.labels, np.random.default_rng([1, bench_inputs.BOW_DIM]))
        else:
            features = ref.features
        assert np.array_equal(g.features, features), name

        cfg = bench_inputs.experiment_config(w, d, info["edges"], str(tmp_path / f"{name}.json"))
        assert attack_budget(cfg, g) == w.flips, name


def test_bag_of_words_inputs_parse_only_their_edges_line_by_line(bench_inputs, tmp_path, monkeypatch):
    # one-digit features and labels take the byte path; the multi-digit edge list alone reaches np.loadtxt
    names = [name for name, w in bench_inputs.WORKLOADS.items() if w.bow_features]
    assert names
    loadtxt, widths = np.loadtxt, []

    def spy(*args, **kwargs):
        out = loadtxt(*args, **kwargs)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(np, "loadtxt", spy)
    for name in names:
        d = str(tmp_path / name)
        bench_inputs.generate(_shrunk(bench_inputs.WORKLOADS[name]), 1, d)
        widths.clear()
        assert load_dataset(d).features.shape[1] == bench_inputs.BOW_DIM
        assert widths == [2], name


# ``generate(WORKLOADS[name], 1, ...)["sha256"]`` at full size, recorded with
# numpy 2.4: a change that moves a seeded benchmark input fails here, not
# only as a new benchmark fingerprint.
SEED_1_DIGESTS = {
    "meta-cora": "69cf3af336c5de92450855b4f2ce46e27696b835f13a2ee4592cb15dff442b83",
    "meta-large": "02e1fa8020facc0523b8b390ad301125d8fdf8b770f3caaa0e49d19540cdaf59",
    "dice-eval": "345b693bc0098f8f7de9a727af303a93052ce093520a1efe2a56e1d7a8199554",
}


@pytest.fixture(scope="module")
def full_inputs(bench_inputs, tmp_path_factory):
    """Generate each full-size workload once per seed: (name, seed) -> (directory, generate's info)."""
    cache = {}

    def get(name, seed=1):
        if (name, seed) not in cache:
            d = str(tmp_path_factory.mktemp(f"{name}-{seed}"))
            cache[name, seed] = d, bench_inputs.generate(bench_inputs.WORKLOADS[name], seed, d)
        return cache[name, seed]

    return get


@pytest.mark.parametrize("name", sorted(SEED_1_DIGESTS))
def test_full_size_seed_1_inputs_are_pinned(bench_inputs, full_inputs, name):
    assert bench_inputs.WORKLOADS.keys() == SEED_1_DIGESTS.keys()
    _, info = full_inputs(name)
    assert info["sha256"] == SEED_1_DIGESTS[name]


# The benchmark's fingerprint of one seed-1 run of each workload, the sha256
# of its flips and per-seed victim accuracies hashed as
# ``perfbench/bench_worker.sha256_json`` hashes them; recorded with numpy
# 2.4 and scipy 1.17. A change that moves a flip or an accuracy by one
# rounding fails here, not only when the benchmark is run.
SEED_1_FINGERPRINTS = {
    "meta-cora": "9f64ea3bc161b1d8dbb58e93d58b1c26757b3fa3d5763d95b8b6214c9e568abd",
    "meta-large": "a82cd59798d2b9422dfc1d0c95c37876241db2367a0a7bcb9c0ba3f82fe4cb96",
    "dice-eval": "5730b61858fba925947efe4cf54f9c0176eedcbb9147961c33988c0d5caeadf3",
}

# The same fingerprints on seed 2, recorded before the float32 pair-score
# scan landed (identical with 1 and 2 BLAS threads): a check of exactness
# on inputs that no speed change was tuned against.
SEED_2_FINGERPRINTS = {
    "meta-cora": "2ff4212ce77c8ffb95fce2770104fe341c1b8d224dd82b02c9fc64a5cc82ee90",
    "meta-large": "5ecbfc9d7538ebc05a01a63ef194cde8df3d430281715316323811151e43d5de",
    "dice-eval": "e0ec6d62edd1fcd4709fbe0229c99fdb39572ad1838128099063c411bc282506",
}


def _fingerprint(bench_inputs, full_inputs, out_dir, name, seed):
    """The benchmark's fingerprint of one run of workload ``name`` on ``seed``."""
    d, info = full_inputs(name, seed)
    w = bench_inputs.WORKLOADS[name]
    cfg = bench_inputs.experiment_config(w, d, info["edges"], str(out_dir / "out.json"))
    report = run_experiment(cfg)
    with open(flips_path(resolve_output(cfg.output))) as fh:
        flips = [[f["i"], f["j"], f["op"]] for f in json.load(fh)]
    payload = {"flips": flips, "per_seed_accuracy": report.per_seed_accuracy}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SEED_1_FINGERPRINTS))
def test_seed_1_benchmark_runs_keep_their_fingerprints(bench_inputs, full_inputs, tmp_path, name):
    assert bench_inputs.WORKLOADS.keys() == SEED_1_FINGERPRINTS.keys()
    assert _fingerprint(bench_inputs, full_inputs, tmp_path, name, 1) == SEED_1_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(SEED_2_FINGERPRINTS))
def test_seed_2_benchmark_runs_keep_their_fingerprints(bench_inputs, full_inputs, tmp_path, name):
    assert bench_inputs.WORKLOADS.keys() == SEED_2_FINGERPRINTS.keys()
    assert _fingerprint(bench_inputs, full_inputs, tmp_path, name, 2) == SEED_2_FINGERPRINTS[name]


# How many of the meta-cora run's 3 scheduled refits (4 flips, a refit
# every flip) return the prior weights because the flips before them left
# the labeled design unchanged, by seed. A change that breaks the reuse
# rule, or applies it where the design changed, moves a count.
META_CORA_REUSED_REFITS = {1: 3, 2: 0}


@pytest.mark.parametrize("seed", sorted(META_CORA_REUSED_REFITS))
def test_meta_cora_runs_reuse_their_pinned_refits(bench_inputs, full_inputs, tmp_path, seed):
    d, info = full_inputs("meta-cora", seed)
    w = bench_inputs.WORKLOADS["meta-cora"]
    cfg = bench_inputs.experiment_config(w, d, info["edges"], str(tmp_path / "out.json"))
    kinds = [t["surrogate"] for t in run_attack(cfg, load_graph(cfg)).trace]
    assert len(kinds) == w.flips and kinds.count("held") == 0
    assert kinds.count("reused") == META_CORA_REUSED_REFITS[seed]
