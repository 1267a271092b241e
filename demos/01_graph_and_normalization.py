"""Graph values, symmetric normalization, components, and edge flips."""

import numpy as np

from graphpoison import build_graph, count_flips, flip_edge, normalize_adjacency
from graphpoison.graph import largest_component

# A 7-node graph: a 5-node core plus a separate 2-node component.
edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)]
features = np.eye(7)
labels = [0, 0, 0, 1, 1, 1, 0]
labeled = [True, False, True, False, True, False, False]

g = build_graph(edges, features, labels, labeled)
print(f"built graph: {g.n_nodes} nodes, {g.n_edges} edges, {g.n_classes} classes")
print("degrees:", g.degrees().astype(int))

ahat = normalize_adjacency(g.csr).toarray()
print("\nnormalized adjacency (self-loops added, degree-scaled):")
print(np.round(ahat, 3))
print("symmetric:", np.allclose(ahat, ahat.T))

# The largest component, picked on the edge list: its node ids and its
# edges renumbered to positions in it.
keep, lcc_edges = largest_component(edges, g.n_nodes)
lcc = build_graph(lcc_edges, features[keep], g.labels[keep], g.labeled_mask[keep])
print(f"\nlargest component keeps {lcc.n_nodes} of {g.n_nodes} nodes")

flipped = flip_edge(lcc, 0, 4)
print(f"after flipping (0, 4): {flipped.n_edges} edges, "
      f"{count_flips(lcc, flipped)} position(s) changed")
back = flip_edge(flipped, 0, 4)
print("flipping again restores the graph:", count_flips(lcc, back) == 0)
