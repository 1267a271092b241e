"""Dataset ingestion from plain text files.

A dataset directory holds three tables, one row per line:

    edges.txt      one undirected edge per row, "i j" (whitespace separated)
    labels.txt     one integer class per row; row v = node v
    features.csv   optional; row v = comma-separated finite feature values of
                   node v (absent file -> identity features, the
                   featureless-graph convention)

All three files follow one rule: row k is line k + 1. A blank or "#" line
before the last row, or a value that does not parse, raises
``DatasetError`` naming ``path:LINE``; trailing blank lines are allowed.

A table whose every line is one-digit fields joined by the delimiter ("1,0,1"
in features.csv, "3" or "1 2" in the whitespace tables), with one field
count and "\n" line ends, is converted in whole-array passes over its bytes:
binary bag-of-words features and labels below 10. Any other file is read
line by line. Both give the same array, and the rules and every
``path:LINE`` error above are the same on either path.

Loading keeps the edge list's largest connected component, then draws a
seeded labeled/unlabeled split. Self-loop rows and duplicate edges are dropped.
"""

from __future__ import annotations

import io
import os
import warnings

import numpy as np

from .graph import Graph, build_graph, largest_component
from .models import check_type

EDGES_FILE = "edges.txt"
LABELS_FILE = "labels.txt"
FEATURES_FILE = "features.csv"


class DatasetError(ValueError):
    """A dataset directory failed to parse or is internally inconsistent."""


def check_split(fraction: float, seed: int) -> None:
    """Raise ValueError unless ``(fraction, seed)`` is a valid split request."""
    if not 0.0 < check_type("split fraction", fraction, float) < 1.0:
        raise ValueError("split fraction must be in (0, 1)")
    if check_type("split seed", seed, int) < 0:
        raise ValueError("split seed must be nonnegative")


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


def _rows(fh, path: str, last: list[int]):
    """Yield the lines of ``fh``, setting ``last[0]`` to the number of each.

    A blank or "#" line before the last row raises DatasetError: np.loadtxt
    would skip it and so renumber every later row. So does a file without
    rows, on which np.loadtxt would only warn.
    """
    blank = 0
    for lineno, line in enumerate(fh, start=1):
        if line.isspace():
            blank = blank or lineno  # legal only if no row follows
        elif blank or line.startswith("#"):
            raise DatasetError(f"{path}:{blank or lineno}: blank or comment line before the last row")
        else:
            last[0] = lineno
            yield line
    if not last[0]:
        raise DatasetError(f"{path}: no rows")


def _read_digits(data: bytes, dtype, delimiter: str | None) -> np.ndarray | None:
    """The table ``data`` holds if every line is ``c<sep>c...c`` with one width, else None.

    Each ``c`` is one decimal digit and ``<sep>`` is ``delimiter`` (one space
    for None); the last newline may be missing. Such a file is a
    ``(rows, width)`` byte grid, so checking its columns and subtracting
    ``ord("0")`` gives what np.loadtxt gives, without a Python step per line.
    No temporary is larger than the file or the returned array.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    width = data.find(b"\n") + 1  # line length, newline included: 2 per field
    if width % 2 or len(data) % width:
        return None
    grid = np.frombuffer(data, np.uint8).reshape(-1, width)
    sep = ord(delimiter or " ")
    if not ((grid[:, 1:-1:2] == sep).all() and (grid[:, -1] == ord("\n")).all()):
        return None
    digits = grid[:, ::2] - np.uint8(ord("0"))  # a byte below "0" wraps above 9
    return digits.astype(dtype) if digits.max() <= 9 else None


def _read_lines(data: bytes, path: str, dtype, delimiter: str | None) -> np.ndarray:
    """The rows of ``data`` through np.loadtxt, or DatasetError naming ``path:LINE``.

    The bytes are decoded as ``open(path)`` would decode them, universal
    newlines included. Two numpy behaviours must hold, and the rejected-line
    tests check both: np.loadtxt pulls one line at a time from ``_rows``, so
    it fails on the last line yielded, and its message ends in " at row ...".
    """
    last = [0]
    try:
        with io.TextIOWrapper(io.BytesIO(data)) as fh, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # else some numpy releases cast "1.5" to 1
            return np.loadtxt(_rows(fh, path, last), dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
    except DatasetError:
        raise
    except ValueError as e:
        reason = str(e).split(" at row ")[0]  # numpy counts its rows from 0 or from 1, by error kind
        raise DatasetError(f"{path}:{last[0]}: {reason}")


def _read_table(path: str, dtype, delimiter: str | None = None) -> np.ndarray:
    """The file's rows as a 2-D array (row k from line k + 1), or DatasetError.

    The file is read once. A table of one-digit fields (``_read_digits``)
    is converted in whole-array passes; every other file goes through
    ``_read_lines``, which builds every ``path:LINE`` error. Both give the
    same array.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DatasetError(f"missing dataset file: {path}")
    table = _read_digits(data, dtype, delimiter)
    return _read_lines(data, path, dtype, delimiter) if table is None else table


def _check_rows(path: str, ok: np.ndarray, problem: str) -> None:
    """Raise DatasetError naming the line of the first row where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise DatasetError(f"{path}:{bad[0] + 1}: {problem}")


def load_dataset(dir_path: str, split_fraction: float = 0.10, split_seed: int = 0) -> Graph:
    """Load a dataset directory into a Graph (LCC-reduced, seeded split).

    The node count is defined by the labels file. LCC reduction happens on
    the edge list, before the split, so the labeled fraction refers to the
    graph actually attacked; identity features for featureless graphs are
    built at the reduced size. A component with fewer than two distinct labels is
    rejected: no margin, attack or accuracy means anything on it.
    """
    check_split(split_fraction, split_seed)
    labels_path = os.path.join(dir_path, LABELS_FILE)
    labels = _read_table(labels_path, np.int64)
    if labels.shape[1] != 1:
        raise DatasetError(f"{labels_path}:1: expected one class per line")
    labels = labels[:, 0]
    n = labels.size
    _check_rows(labels_path, labels >= 0, "negative class index")

    edges_path = os.path.join(dir_path, EDGES_FILE)
    pairs = _read_table(edges_path, np.int64)
    if pairs.shape[1] != 2:
        raise DatasetError(f"{edges_path}:1: expected 'i j', got {pairs.shape[1]} values")
    _check_rows(edges_path, ((pairs >= 0) & (pairs < n)).all(axis=1), f"node id out of range for {n} nodes")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    feats_path = os.path.join(dir_path, FEATURES_FILE)
    feats = _read_table(feats_path, np.float64, ",") if os.path.exists(feats_path) else None
    if feats is not None:
        if feats.shape[0] != n:
            raise DatasetError(f"{feats_path} has {feats.shape[0]} rows but labels define {n} nodes")
        _check_rows(feats_path, np.isfinite(feats).all(axis=1), "non-finite feature value (NaN or inf)")

    keep, pairs = largest_component(pairs, n)
    labels = labels[keep]
    if np.unique(labels).size < 2:
        raise DatasetError(f"the largest connected component holds fewer than two classes: {labels_path}")
    if feats is None:
        feats = np.eye(keep.size)
    elif keep.size < n:  # an LCC of every node needs no N x d copy
        feats = feats[keep]

    mask = seeded_split(labels.size, split_fraction, split_seed)
    return build_graph(pairs, feats, labels, mask)
