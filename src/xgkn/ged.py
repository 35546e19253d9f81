"""Exact graph edit distance for small graphs via A* over node assignments.

Unit costs only: node insertion and deletion cost 1, edge insertion and
deletion cost 1, and a node substitution costs 0 when the two feature rows
agree within ``FEATURE_TOL`` in every entry and 1 otherwise. So the distance
is an integer. The normalized distance divides by the worst-case edit path
(delete one graph entirely, insert the other), which bounds it to [0, 1].

The search maps the nodes of ``g1``, highest degree first, each to an unused
node of ``g2`` or to deletion. With ``r1``/``r2`` nodes of each graph still
unmapped and ``open1``/``open2`` edges with an unmapped endpoint, no completion
costs less than ``|r1 - r2| + |open1 - open2|``, because each remaining node
or edge is either matched one-to-one or deleted or inserted at cost 1. Once
all of ``g1`` is mapped (``r1 = open1 = 0``) the bound is exactly the cost of
inserting the leftover nodes and open edges of ``g2``, so a state's priority
is its full cost, and the first complete state popped is optimal.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .errors import CapacityError
from .graphs import Graph
from .kernel import GraphFilter

MAX_EXACT_NODES = 12
FEATURE_TOL = 1e-9


def ged_exact(g1: Graph, g2: Graph) -> float:
    """Minimal unit edit cost transforming ``g1`` into ``g2`` (A* search)."""
    if g1.n > MAX_EXACT_NODES or g2.n > MAX_EXACT_NODES:
        raise CapacityError(
            f"exact edit distance is capped at {MAX_EXACT_NODES} nodes per graph")
    n1, n2 = g1.n, g2.n
    b1 = g1.adjacency != 0
    b2 = g2.adjacency != 0
    mismatch = ~np.isclose(g1.features[:, None, :], g2.features[None, :, :],
                           atol=FEATURE_TOL, rtol=0.0).all(axis=2)
    # expanding high-degree nodes first tightens the bound sooner
    order = np.argsort(-b1.sum(axis=1), kind="stable")
    rank = np.argsort(order)
    # closed1[d]: g1 edges whose endpoints are both among the first d mapped
    rows, cols = np.nonzero(np.triu(b1, 1))
    last = np.maximum(rank[rows], rank[cols])
    closed1 = [0] + np.cumsum(np.bincount(last, minlength=n1)).tolist()
    e1, e2 = len(rows), int(np.count_nonzero(np.triu(b2, 1)))
    order, a1, a2, mismatch = order.tolist(), b1.tolist(), b2.tolist(), mismatch.tolist()

    def bound(depth: int, used: int, closed2: int) -> int:
        return (abs((n1 - depth) - (n2 - used))
                + abs((e1 - closed1[depth]) - (e2 - closed2)))

    counter = itertools.count()
    heap = [(bound(0, 0, 0), next(counter), 0, 0, (), frozenset(), 0)]
    while True:
        f, _, depth, g, assignment, used2, closed2 = heapq.heappop(heap)
        if depth == n1:
            return float(f)
        u = order[depth]
        for v in [None] + [v for v in range(n2) if v not in used2]:
            # node cost plus the edges from u to the already-mapped prefix
            step = 1 if v is None else mismatch[u][v]
            for u_prev, v_prev in zip(order, assignment):
                if v is None or v_prev is None:
                    step += a1[u][u_prev]
                else:
                    step += a1[u][u_prev] != a2[v][v_prev]
            new_used, new_closed = used2, closed2
            if v is not None:
                new_used = used2 | {v}
                new_closed += sum(a2[v][w] for w in used2)
            new_g = g + step
            heapq.heappush(heap, (
                new_g + bound(depth + 1, len(new_used), new_closed), next(counter),
                depth + 1, new_g, assignment + (v,), new_used, new_closed))


def ged_normalized(g1: Graph, g2: Graph) -> float:
    """Edit distance divided by the worst-case path (full delete + full
    insert); 0 for two empty graphs."""
    worst = g1.n + g1.num_edges() + g2.n + g2.num_edges()
    if worst == 0:
        return 0.0
    return ged_exact(g1, g2) / worst


def binarize_filter(filt: GraphFilter, feature_rows: np.ndarray | None = None,
                    encoder=None) -> Graph:
    """Discretize a continuous filter: keep edges with weight >= 0.5.

    When ``feature_rows`` (raw dataset rows) and an encoder are given, each
    filter node takes the raw row whose encoding is nearest to the node's
    embedding; otherwise nodes drop to a constant unlabeled feature.
    """
    adjacency = (filt.adjacency_values() >= 0.5).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    if feature_rows is None:
        features = np.ones((filt.size, 1))
    else:
        if encoder is None:
            raise ValueError("snapping to dataset rows requires the encoder")
        rows = np.unique(np.asarray(feature_rows, dtype=np.float64), axis=0)
        encoded = encoder.encode_rows(rows)
        normalized = filt.features.values / np.maximum(
            np.linalg.norm(filt.features.values, axis=1, keepdims=True), 1e-12)
        features = np.empty((filt.size, rows.shape[1]))
        for i, row in enumerate(normalized):
            distances = np.linalg.norm(encoded - row, axis=1)
            features[i] = rows[int(np.argmin(distances))]
    return Graph(adjacency, features, np.arange(filt.size))
