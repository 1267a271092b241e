import collections
import os

import numpy as np
import pytest

from graphpoison import Graph, graph, sbm_graph
from graphpoison.gradients import CHUNK_ROWS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_ROOT = os.environ.get("GRAPHPOISON_DATA", os.path.join(REPO_ROOT, "data"))
CORA_DIR = os.path.join(DATA_ROOT, "cora")


def cora_available() -> bool:
    return all(
        os.path.exists(os.path.join(CORA_DIR, name))
        for name in ("edges.txt", "labels.txt", "features.csv")
    )


requires_cora = pytest.mark.skipif(
    not cora_available(),
    reason=(
        f"Cora dataset not staged at {CORA_DIR} (edges.txt/labels.txt/features.csv); "
        "see README 'Datasets' for the expected layout"
    ),
)


def tiny_graph(n=6, seed=0, n_labeled=2) -> Graph:
    """Small random connected-ish graph with random features/labels."""
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    a = a + a.T
    feats = rng.normal(size=(n, 4))
    labels = rng.integers(0, 3, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:n_labeled]] = True
    return Graph(a, feats, labels, mask, n_classes=3)


@pytest.fixture
def small_sbm() -> Graph:
    return sbm_graph((20, 20), p_in=0.3, p_out=0.03, seed=1)


@pytest.fixture
def medium_sbm() -> Graph:
    return sbm_graph((50, 50), p_in=0.2, p_out=0.01, seed=0)


@pytest.fixture(scope="module")
def three_chunk_sbm() -> Graph:
    """Three row chunks of pair scores: the last chunk is partial."""
    g = sbm_graph((250, 250, 200), 0.03, 0.003, seed=0)
    assert g.n_nodes > 2 * CHUNK_ROWS
    return g


def spy_graph_builds(monkeypatch) -> collections.Counter:
    """Count, from here on, ``Graph`` constructions and ``connected_components`` calls."""
    calls = collections.Counter()
    init, components = graph.Graph.__init__, graph.connected_components

    def counting_init(self, *args, **kwargs):
        calls["Graph"] += 1
        init(self, *args, **kwargs)

    def counting_components(*args, **kwargs):
        calls["connected_components"] += 1
        return components(*args, **kwargs)

    monkeypatch.setattr(graph.Graph, "__init__", counting_init)
    monkeypatch.setattr(graph, "connected_components", counting_components)
    return calls


def write_plain_dataset(g: Graph, dir_path, features: bool = True) -> str:
    os.makedirs(dir_path, exist_ok=True)
    iu, ju = np.triu(g.adjacency, 1).nonzero()
    with open(os.path.join(dir_path, "edges.txt"), "w") as fh:
        fh.write("\n".join(f"{i} {j}" for i, j in zip(iu, ju)) + "\n")
    with open(os.path.join(dir_path, "labels.txt"), "w") as fh:
        fh.write("\n".join(str(int(v)) for v in g.labels) + "\n")
    if features:
        np.savetxt(os.path.join(dir_path, "features.csv"), g.features, delimiter=",")
    return str(dir_path)
