"""Dataset ingestion from plain text files.

A dataset directory holds:

    edges.txt      one undirected edge per line, "i j" (whitespace separated)
    labels.txt     one integer class per line; line number = node id
    features.csv   optional; row v = comma-separated finite feature values of
                   node v, no blank or "#" line before the last row (absent
                   file -> identity features, the featureless-graph
                   convention)

Loading applies largest-connected-component extraction and a seeded
labeled/unlabeled split. Self-loop lines and duplicate edges are dropped.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .graph import Graph, build_graph, largest_component
from .models import _check_int

EDGES_FILE = "edges.txt"
LABELS_FILE = "labels.txt"
FEATURES_FILE = "features.csv"

PLAIN = "plain"


class DatasetError(ValueError):
    """A dataset directory failed to parse or is internally inconsistent."""


def check_split(fraction: float, seed: int) -> None:
    """Raise ValueError unless ``(fraction, seed)`` is a valid split request."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("split fraction must be in (0, 1)")
    _check_int("split seed", seed, 0)


def seeded_split(n_nodes: int, fraction: float, seed: int) -> np.ndarray:
    """Boolean labeled mask over nodes: a deterministic function of (seed, n)."""
    check_split(fraction, seed)
    n_labeled = max(1, int(np.floor(fraction * n_nodes)))
    if n_labeled >= n_nodes:
        raise ValueError("split leaves no unlabeled nodes")
    order = np.random.default_rng(seed).permutation(n_nodes)
    mask = np.zeros(n_nodes, dtype=bool)
    mask[order[:n_labeled]] = True
    return mask


def _read_labels(path: str) -> np.ndarray:
    """Class per node; a blank line before the last label would renumber every later node."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except FileNotFoundError:
        raise DatasetError(f"missing labels file: {path}")
    while lines and not lines[-1]:
        lines.pop()  # trailing blank lines name no node
    if "" in lines:
        lineno = lines.index("") + 1
        raise DatasetError(f"{path}:{lineno}: blank line before the last label (line number = node id)")
    try:
        labels = [int(line) for line in lines]
    except ValueError as e:
        raise DatasetError(f"bad label line in {path}: {e}")
    if not labels:
        raise DatasetError(f"labels file is empty: {path}")
    out = np.asarray(labels, dtype=np.int64)
    if out.min() < 0:
        raise DatasetError(f"negative class index in {path}")
    return out


def _read_edges(path: str, n_nodes: int) -> np.ndarray:
    """(E, 2) array of the file's node pairs, self-loop lines dropped."""
    pairs = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise DatasetError(f"{path}:{lineno}: expected 'i j', got {line.strip()!r}")
                try:
                    i, j = int(parts[0]), int(parts[1])
                except ValueError:
                    raise DatasetError(f"{path}:{lineno}: non-integer node id")
                if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                    raise DatasetError(f"{path}:{lineno}: node id out of range for {n_nodes} nodes")
                if i != j:
                    pairs.append((i, j))
    except FileNotFoundError:
        raise DatasetError(f"missing edges file: {path}")
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _feature_rows(fh, path: str):
    """Yield the lines of ``fh``, rejecting a blank or "#" line before the last row.

    np.loadtxt would skip such a line and so renumber every later node.
    """
    blank = 0
    for lineno, line in enumerate(fh, start=1):
        if line.isspace():
            blank = blank or lineno  # legal only if no row follows
        elif blank or line.startswith("#"):
            raise DatasetError(
                f"{path}:{blank or lineno}: blank or comment line before the last feature row (row = node id)"
            )
        else:
            yield line


def _read_features(path: str, n_nodes: int) -> np.ndarray | None:
    """Feature matrix, or None when the file is absent (featureless graph)."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            feats = np.loadtxt(_feature_rows(fh, path), delimiter=",", ndmin=2, dtype=np.float64)
    except DatasetError:
        raise
    except ValueError as e:
        raise DatasetError(f"bad features file {path}: {e}")
    if feats.shape[0] != n_nodes:
        raise DatasetError(f"features have {feats.shape[0]} rows but labels define {n_nodes} nodes")
    bad_rows = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad_rows.size:
        raise DatasetError(f"non-finite feature value (NaN or inf) in {path}, row {bad_rows[0]}")
    return feats


def load_dataset(
    dir_path: str,
    format: str = PLAIN,
    split_fraction: float = 0.10,
    split_seed: int = 0,
) -> Graph:
    """Load a dataset directory into a Graph (LCC-reduced, seeded split).

    The node count is defined by the labels file. LCC reduction happens
    before the split, so the labeled fraction refers to the graph actually
    attacked; identity features for featureless graphs are built at the
    reduced size. A component with fewer than two distinct labels is
    rejected: no margin, attack or accuracy means anything on it.
    """
    if format != PLAIN:
        raise DatasetError(f"unknown dataset format {format!r}")
    check_split(split_fraction, split_seed)
    labels_path = os.path.join(dir_path, LABELS_FILE)
    labels = _read_labels(labels_path)
    n = labels.size
    pairs = _read_edges(os.path.join(dir_path, EDGES_FILE), n)
    feats = _read_features(os.path.join(dir_path, FEATURES_FILE), n)

    keep = largest_component(sp.coo_matrix((np.ones(len(pairs)), pairs.T), shape=(n, n)))
    new_id = np.full(n, -1)
    new_id[keep] = np.arange(keep.size)
    pairs = new_id[pairs]
    pairs = pairs[pairs[:, 0] >= 0]  # an edge leaves the LCC only with both endpoints
    labels = labels[keep]
    if np.unique(labels).size < 2:
        raise DatasetError(f"the largest connected component holds fewer than two classes: {labels_path}")
    feats = np.eye(keep.size) if feats is None else feats[keep]

    mask = seeded_split(labels.size, split_fraction, split_seed)
    return build_graph(pairs, feats, labels, mask)
