"""Seeded synthetic graphs for tests, demos and the benchmark.

``sbm_graph`` draws its edge coins in ``_COIN_ROWS``-row blocks of one stream
(consecutive ``rng.random((rows, N))`` calls read exactly the stream of one
``rng.random((N, N))``), compares only the columns at or right of a block's
first row, and hands the upper-triangle hits to ``build_graph``: the graph of
one N x N draw, in O(_COIN_ROWS * N) memory.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, build_graph, largest_component
from .models import check_type

Array = np.ndarray
_COIN_ROWS = 256  # adjacency rows per coin block


def _stratified_mask(labels: Array, fraction: float, rng: np.random.Generator) -> Array:
    """A ``fraction`` sample of each class present in ``labels``, at least one node each.

    When every class has a single node, that rule labels every node; then
    the last node is left unlabeled, so two or more nodes always keep both
    sides of the mask. It draws nothing extra from ``rng``.
    """
    mask = np.zeros(labels.size, dtype=bool)
    for b in np.unique(labels):
        members = np.flatnonzero(labels == b)
        take = max(1, int(np.floor(fraction * members.size)))
        mask[rng.choice(members, size=take, replace=False)] = True
    if labels.size > 1 and mask.all():
        mask[-1] = False
    return mask


def sbm_graph(
    block_sizes=(50, 50),
    p_in: float = 0.2,
    p_out: float = 0.01,
    feature_noise: float = 1.0,
    labeled_fraction: float = 0.1,
    seed: int = 0,
    connected: bool = True,
) -> Graph:
    """Stochastic block model with noisy block-indicator features.

    Labels are block ids; features are one-hot block indicators plus
    ``feature_noise`` times standard Gaussian noise, so classification has
    to lean on structure. The labeled set is a stratified
    ``labeled_fraction`` sample per block (at least one per block, but
    never every node). With ``connected=True`` the graph is the draw's
    largest component (:func:`largest_component`), which must hold an edge;
    if it holds only labeled or only unlabeled nodes, the labeled set is
    redrawn from its nodes: where it holds one node per class, all but its
    last are labeled. A bad argument raises ValueError naming it.
    """
    sizes = check_type("block_sizes", block_sizes, tuple)
    if not sizes or min(sizes) < 1:
        raise ValueError(f"block_sizes must be a nonempty list of positive integers, got {block_sizes!r}")
    for name, value in (("p_in", p_in), ("p_out", p_out), ("labeled_fraction", labeled_fraction)):
        if not 0.0 <= check_type(name, value, float) <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    for name, value, kind in (("feature_noise", feature_noise, float), ("seed", seed, int)):
        if check_type(name, value, kind) < 0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
    check_type("connected", connected, bool)

    rng = np.random.default_rng(seed)
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)

    edges = []
    for start in range(0, n, _COIN_ROWS):
        same = labels[start : start + _COIN_ROWS, None] == labels[start:]
        coins = rng.random((same.shape[0], n))[:, start:]  # the coins left of the block's first row go unread
        i, j = np.nonzero(coins < np.where(same, p_in, p_out))
        edges.append(np.stack([i, j], axis=1)[j > i] + start)
    edges = np.concatenate(edges)

    features = np.eye(len(sizes))[labels] + feature_noise * rng.normal(size=(n, len(sizes)))
    mask = _stratified_mask(labels, labeled_fraction, rng)
    if connected:
        keep, edges = largest_component(edges, n)
        if keep.size == 1:
            raise ValueError("sbm_graph drew no edge: its largest component is a single node")
        features, labels, mask = features[keep], labels[keep], mask[keep]
        if mask.all() or not mask.any():
            mask = _stratified_mask(labels, labeled_fraction, rng)
    return build_graph(edges, features, labels, mask, n_classes=len(sizes))
