"""Immutable small-graph values, subgraph extraction and perturbation samplers.

Graphs are dense: adjacency is an ``n x n`` symmetric float matrix (binary for
data graphs, weights in ``[0, 1]`` for learned filters) and ``features`` is an
``n x d`` float matrix. ``node_ids`` keeps the lineage of induced subgraphs:
for a root graph it is ``0..n-1``, for an induced subgraph it holds the ids the
nodes had in the parent graph.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

from .errors import (
    EmptySelectionError,
    FeatureDimError,
    IncompatibleSetsError,
    InvalidNodeError,
)
from .record import Record


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Deterministic random stream (PCG64) with derivable substreams.

    Identical seed and call sequence reproduce identical outputs bit-exactly.
    ``derive`` creates an independent stream, so parallel workers can each own
    one stream derived from the master seed. It is seeded from the uint32
    words of (seed, *stream), low word first and one word for 0: the pool
    that ``np.random.SeedSequence`` makes of the ints themselves.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int, _stream: tuple = ()):
        self.seed = int(seed)
        self.stream = tuple(_stream)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [(key >> shift) & 0xFFFFFFFF for key in (self.seed,) + self.stream
                 for shift in range(0, max(key.bit_length(), 1), 32)]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            np.array(words, dtype=np.uint32))))

    def derive(self, *keys) -> "Rng":
        return Rng(self.seed, self.stream + tuple(_key_to_int(k) for k in keys))

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc=loc, scale=scale, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(algorithm={self.algorithm!r}, seed={self.seed}, stream={self.stream})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Graph(Record):
    """Undirected graph with dense adjacency and per-node features.

    ``anchor`` is the position (not id) of the anchor node when the graph is a
    node-centered neighborhood; ``None`` otherwise.
    """

    adjacency: np.ndarray
    features: np.ndarray
    node_ids: np.ndarray
    label: int | None = None
    anchor: int | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        feats = np.asarray(self.features, dtype=np.float64)
        ids = np.asarray(self.node_ids, dtype=np.int64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        n = adj.shape[0]
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if n and np.any(np.diagonal(adj) != 0.0):
            raise ValueError("adjacency diagonal must be zero")
        if feats.ndim != 2 or feats.shape[0] != n:
            raise FeatureDimError(f"features must have {n} rows, got {feats.shape}")
        if ids.shape != (n,) or len(set(ids.tolist())) != n:
            raise ValueError("node_ids must be n distinct ids")
        if self.anchor is not None and not (0 <= self.anchor < n):
            raise InvalidNodeError(f"anchor position {self.anchor} out of range")
        object.__setattr__(self, "adjacency", _freeze(adj))
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "node_ids", _freeze(ids))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @staticmethod
    def from_edges(n: int, edges, features=None, label: int | None = None) -> "Graph":
        adj = np.zeros((n, n), dtype=np.float64)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        if features is None:
            features = np.ones((n, 1), dtype=np.float64)
        return Graph(adj, np.asarray(features, dtype=np.float64), np.arange(n), label=label)

    def position_of(self, node_id: int) -> int:
        hits = np.nonzero(self.node_ids == node_id)[0]
        if hits.size == 0:
            raise InvalidNodeError(f"node id {node_id} not in graph")
        return int(hits[0])

    def edge_list(self) -> list[tuple[int, int]]:
        """Undirected edges as (id, id) pairs with id < id ordering by position."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(self.node_ids[i]), int(self.node_ids[j])) for i, j in zip(rows, cols)]

    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    def degrees(self) -> np.ndarray:
        return np.count_nonzero(self.adjacency, axis=1)

    def density(self) -> float:
        if self.n < 2:
            return 0.0
        return 2.0 * self.num_edges() / (self.n * (self.n - 1))

    def with_features(self, features: np.ndarray) -> "Graph":
        return Graph(self.adjacency, features, self.node_ids, label=self.label, anchor=self.anchor)

    def _derived(self, adjacency: np.ndarray, features: np.ndarray, node_ids: np.ndarray,
                 anchor: int | None = None) -> "Graph":
        """A graph of this one's label over float64/int64 arrays derived from
        this validated graph in a way that keeps every ``__post_init__`` check
        true (a principal submatrix, a symmetric edit with zero diagonal,
        resampled feature rows of the same width), built without re-running
        those checks."""
        out = object.__new__(Graph)
        for name, value in (("adjacency", _freeze(adjacency)), ("features", _freeze(features)),
                            ("node_ids", _freeze(node_ids)), ("label", self.label),
                            ("anchor", anchor)):
            object.__setattr__(out, name, value)
        return out


class NodeSet(Record):
    """Sorted, duplicate-free node ids referencing one root graph.

    ``root`` is an opaque tag (dataset graph index in practice); two sets with
    differing non-None tags are treated as referencing different graphs.
    """

    ids: tuple[int, ...]
    root: int | None = None

    def __post_init__(self):
        ids = tuple(sorted(int(i) for i in self.ids))
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
        object.__setattr__(self, "ids", ids)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, node_id):
        return int(node_id) in set(self.ids)

    def __iter__(self):
        return iter(self.ids)


def induced_subgraph(g: Graph, s: NodeSet) -> Graph:
    """Restrict ``g`` to the nodes of ``s``; node_ids keep the original ids."""
    if len(s) == 0:
        raise EmptySelectionError("cannot induce a subgraph on an empty node set")
    position = dict(zip(g.node_ids.tolist(), range(g.n)))
    missing = [i for i in s.ids if i not in position]
    if missing:
        raise InvalidNodeError(f"node id {missing[0]} not in graph")
    return induced_by_positions(g, [position[i] for i in s.ids])


def induced_by_positions(g: Graph, positions, anchor: int | None = None) -> Graph:
    """Restrict ``g`` to the distinct node ``positions``, in that order."""
    idx = np.asarray(positions, dtype=np.int64)
    return g._derived(g.adjacency[idx[:, None], idx], g.features[idx], g.node_ids[idx], anchor)


def k_hop_neighborhood(g: Graph, v: int, k: int, max_size: int) -> Graph:
    """Induced subgraph over nodes within ``k`` hops of ``v``.

    If more than ``max_size`` nodes qualify, keeps ``v`` plus the nearest by
    hop distance, breaking ties by ascending node id. ``v`` is placed first
    and marked as the anchor.
    """
    if k < 1:
        raise ValueError("hop radius k must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    start = g.position_of(v)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if dist[u] == k:
            continue
        for w in np.nonzero(g.adjacency[u])[0]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(int(w))
    reachable = [p for p in range(g.n) if dist[p] >= 0]
    reachable.sort(key=lambda p: (dist[p], int(g.node_ids[p])))
    kept = reachable[:max_size]
    if start not in kept:  # cannot happen (distance 0 sorts first), kept for clarity
        kept = [start] + kept[: max_size - 1]
    kept.remove(start)
    return induced_by_positions(g, [start] + kept, anchor=0)


def iou_nodes(a: NodeSet, b: NodeSet) -> float:
    """Intersection-over-union of two node sets; 1.0 when both are empty."""
    if a.root is not None and b.root is not None and a.root != b.root:
        raise IncompatibleSetsError(f"node sets reference different roots: {a.root} vs {b.root}")
    sa, sb = set(a.ids), set(b.ids)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def _check_probability(name: str, p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {p}")


def perturb_features(
    g: Graph,
    delta: float,
    pool: np.ndarray,
    rng: Rng,
    exclude: NodeSet | None = None,
) -> Graph:
    """Resample each node's feature row from ``pool`` with probability ``delta``.

    Structure is untouched. Nodes listed in ``exclude`` (by id) are never
    perturbed.
    """
    _check_probability("delta", delta)
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError("pool must be a nonempty 2-D array of feature rows")
    if pool.shape[1] != g.feature_dim:
        raise FeatureDimError(
            f"pool feature dim {pool.shape[1]} != graph feature dim {g.feature_dim}"
        )
    hit = rng.random(g.n) < delta
    if exclude is not None:
        excluded = set(exclude.ids)
        hit &= ~np.fromiter(map(excluded.__contains__, g.node_ids.tolist()), bool, count=g.n)
    feats = np.array(g.features)
    for pos in np.flatnonzero(hit):
        feats[pos] = pool[int(rng.integers(0, pool.shape[0]))]
    return g._derived(g.adjacency, feats, g.node_ids, g.anchor)


def perturb_edges(
    g: Graph,
    delta_add: float,
    delta_remove: float,
    rng: Rng,
    protected: set[tuple[int, int]] | None = None,
) -> Graph:
    """Random edge edits: drop existing edges w.p. ``delta_remove``, create
    absent pairs w.p. ``delta_add``. Self-loops are never created.

    ``protected`` holds (id, id) pairs that must not be removed (additions are
    unrestricted, matching the protection contract).
    """
    _check_probability("delta_add", delta_add)
    _check_probability("delta_remove", delta_remove)
    position = dict(zip(g.node_ids.tolist(), range(g.n)))
    guarded = np.zeros((g.n, g.n), dtype=bool)
    for a, b in protected or ():
        if a in position and b in position:
            guarded[position[a], position[b]] = guarded[position[b], position[a]] = True
    adj = np.array(g.adjacency)
    draws = rng.random((g.n, g.n))
    upper = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    present = adj != 0.0
    remove = upper & present & ~guarded & (draws < delta_remove)
    add = upper & ~present & (draws < delta_add)
    adj[remove | remove.T] = 0.0
    adj[add | add.T] = 1.0
    return g._derived(adj, g.features, g.node_ids, g.anchor)
