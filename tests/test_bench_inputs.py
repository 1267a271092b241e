"""Guard: the library reads the dataset files the benchmark writes.

``perfbench/bench_inputs.py`` writes each workload's dataset directory
with its own writers (``repr`` for Gaussian features, integers for
bag-of-words ones) and builds each run's config from ``ExperimentConfig``.
A change to the loader or the config that breaks either breaks the
benchmark without failing anything else, so this test loads the module
(read-only, by path) and reads a shrunk copy of every workload back.
"""

import dataclasses
import importlib.util
import os
import sys

import numpy as np
import pytest

from graphpoison import load_dataset, sbm_graph
from graphpoison.experiment import attack_budget

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


def test_every_workload_loads_as_generated(bench_inputs, tmp_path):
    for name, full in bench_inputs.WORKLOADS.items():
        scale = full.block_size / BLOCK_SIZE  # keeps the mean degree
        w = dataclasses.replace(full, block_size=BLOCK_SIZE, p_in=full.p_in * scale, p_out=full.p_out * scale)
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
