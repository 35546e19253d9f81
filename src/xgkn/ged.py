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

Node sets are bitmasks: bit ``w`` of ``adj2[v]`` is the ``g2`` edge ``v-w``
and ``used`` holds the ``g2`` nodes already taken. Mapping the next ``g1``
node ``u`` to ``v`` costs, for the edges back to the mapped prefix, one
popcount of ``image ^ (adj2[v] & used)``, where ``image`` holds the ``g2``
nodes that ``u``'s mapped prefix neighbours went to, plus the number of
``u``'s prefix neighbours that were deleted.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import CapacityError
from .graphs import Graph

MAX_EXACT_NODES = 12
FEATURE_TOL = 1e-9


def ged_exact(g1: Graph, g2: Graph, cutoff: float = math.inf) -> float:
    """Minimal unit edit cost transforming ``g1`` into ``g2`` (A* search).

    The search stops once the smallest open priority reaches ``cutoff`` and
    returns that priority, a lower bound on the distance that is at least
    ``cutoff``. A value below ``cutoff`` is the exact distance.
    """
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
    # back[d]: prefix positions j < d whose node is adjacent to order[d]
    back = [np.nonzero(row[:d])[0].tolist()
            for d, row in enumerate(b1[np.ix_(order, order)])]
    adj2 = (b2.astype(np.int64) @ (1 << np.arange(n2, dtype=np.int64))).tolist()
    order, mismatch = order.tolist(), mismatch.tolist()

    counter = itertools.count()
    heap = [(abs(n1 - n2) + abs(e1 - e2), next(counter), 0, 0, (), 0, 0)]
    while True:
        f, _, depth, g, assignment, used, closed2 = heapq.heappop(heap)
        if depth == n1 or f >= cutoff:
            return float(f)
        u_cost, edges = mismatch[order[depth]], back[depth]
        image = deleted = 0
        for j in edges:
            v_prev = assignment[j]
            if v_prev is None:
                deleted += 1
            else:
                image |= 1 << v_prev
        # the children's bound terms: nodes and edges of g1 left unmapped
        r1, open1 = n1 - depth - 1, e1 - closed1[depth + 1]
        r2 = n2 - used.bit_count()
        g_del = g + 1 + len(edges)
        heapq.heappush(heap, (
            g_del + abs(r1 - r2) + abs(open1 - (e2 - closed2)), next(counter),
            depth + 1, g_del, assignment + (None,), used, closed2))
        for v in range(n2):
            if used >> v & 1:
                continue
            common = adj2[v] & used
            new_g = g + u_cost[v] + deleted + (image ^ common).bit_count()
            new_closed = closed2 + common.bit_count()
            heapq.heappush(heap, (
                new_g + abs(r1 - r2 + 1) + abs(open1 - (e2 - new_closed)), next(counter),
                depth + 1, new_g, assignment + (v,), used | 1 << v, new_closed))


def ged_normalized(g1: Graph, g2: Graph) -> float:
    """Edit distance divided by the worst-case path (full delete + full
    insert); 0 for two empty graphs."""
    worst = g1.n + g1.num_edges() + g2.n + g2.num_edges()
    if worst == 0:
        return 0.0
    return ged_exact(g1, g2) / worst


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order, as
    ``np.unique(rows, axis=0)`` gives them, without the ``numpy.ma`` import
    that its first call costs."""
    rows = rows[np.lexsort(rows.T[::-1])]
    distinct = np.ones(rows.shape[0], dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[distinct]


def binarize_filter(adjacency: np.ndarray, features: np.ndarray,
                    feature_rows: np.ndarray | None = None, encoder=None) -> Graph:
    """Discretize one filter of the bank, given its effective adjacency and
    embedding rows: keep edges with weight >= 0.5.

    When ``feature_rows`` (raw dataset rows) and an encoder are given, each
    filter node takes the raw row whose encoding is nearest to the node's
    embedding; otherwise nodes drop to a constant unlabeled feature.
    """
    size = adjacency.shape[0]
    adjacency = (adjacency >= 0.5).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    if feature_rows is None:
        features = np.ones((size, 1))
    else:
        if encoder is None:
            raise ValueError("snapping to dataset rows requires the encoder")
        rows = unique_rows(np.asarray(feature_rows, dtype=np.float64))
        encoded = encoder.encode_rows(rows)
        normalized = features / np.maximum(
            np.linalg.norm(features, axis=1, keepdims=True), 1e-12)
        features = np.empty((size, rows.shape[1]))
        for i, row in enumerate(normalized):
            distances = np.linalg.norm(encoded - row, axis=1)
            features[i] = rows[int(np.argmin(distances))]
    return Graph(adjacency, features, np.arange(size))
