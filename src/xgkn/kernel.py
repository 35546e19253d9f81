"""Random-walk kernels on product graphs, differentiable in the filters.

The anchored variant counts only walks whose starting product node has the
anchor as its first coordinate; with the similarity matrix S and walk cap P it
evaluates sum_p of the anchor row of S .* (A^p S W^p), computed by the
recurrence M <- A M W so no product-graph power is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .graphs import Graph, Rng
from .numkit import Tensor


class FeatureEncoder:
    """Linear map from raw node features to L2-normalized embeddings."""

    def __init__(self, weight: Tensor):
        self.weight = weight

    @staticmethod
    def init(feature_dim: int, embed_dim: int, rng: Rng) -> "FeatureEncoder":
        scale = 1.0 / np.sqrt(feature_dim)
        return FeatureEncoder(Tensor(rng.normal(scale=scale, size=(feature_dim, embed_dim)),
                                     requires_grad=True))

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[1]

    def encode(self, raw_features: np.ndarray) -> Tensor:
        return nk.row_unit_normalize(Tensor(raw_features) @ self.weight)

    def encode_rows(self, raw_features: np.ndarray) -> np.ndarray:
        return self.encode(raw_features).values


class GraphFilter:
    """Trainable small graph: free adjacency logits squashed through a sigmoid
    (symmetrized, zero diagonal, so entries stay in [0, 1]) plus an embedding
    row per node."""

    def __init__(self, adjacency_logits: Tensor, features: Tensor):
        if adjacency_logits.shape[0] != adjacency_logits.shape[1]:
            raise ValueError("adjacency logits must be square")
        if features.shape[0] != adjacency_logits.shape[0]:
            raise ValueError("one feature row per filter node required")
        self.adjacency_logits = adjacency_logits
        self.features = features

    @staticmethod
    def init(size: int, embed_dim: int, rng: Rng) -> "GraphFilter":
        logits = rng.normal(size=(size, size))
        feats = rng.normal(size=(size, embed_dim))
        return GraphFilter(Tensor(logits, requires_grad=True),
                           Tensor(feats, requires_grad=True))

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.features.shape[1]

    def effective_adjacency(self) -> Tensor:
        squashed = nk.sigmoid(self.adjacency_logits)
        sym = (squashed + nk.transpose(squashed)) * Tensor(np.full((1, 1), 0.5))
        mask = np.ones((self.size, self.size)) - np.eye(self.size)
        return sym * Tensor(mask)

    def adjacency_values(self) -> np.ndarray:
        return self.effective_adjacency().values

    def parameters(self) -> list[Tensor]:
        return [self.adjacency_logits, self.features]


@dataclass(frozen=True)
class SubgraphStack:
    """All k-hop neighborhoods of one graph stacked block-diagonally, so the
    walk recurrence runs for every anchor at once."""

    raw_features: np.ndarray
    block_adjacency: "scipy.sparse.csr_matrix"
    anchor_rows: np.ndarray
    num_nodes: int


def build_subgraph_stack(g: Graph, k: int, max_size: int) -> SubgraphStack:
    """Stack the ``graphs.k_hop_neighborhood`` of every node of ``g``, in node
    order, with whole-graph array operations.

    Hop distances come from ``k`` boolean matmuls; each row keeps its nearest
    ``max_size`` nodes by (distance, node id), the anchor first. Every block is
    stored densely, explicit zeros included, exactly as ``scipy.sparse.
    block_diag`` stores dense blocks; tests/oracles.py keeps that per-node loop
    as the reference.
    """
    # scipy.sparse takes about 0.17 s to import; only the stages that build
    # stacks pay for it
    import scipy.sparse as sp

    if k < 1:
        raise ValueError("hop radius k must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n = g.n
    linked = g.adjacency != 0
    reached = np.eye(n, dtype=bool)
    dist = np.where(reached, 0, k + 1)
    for hop in range(1, k + 1):
        frontier = (reached @ linked) & ~reached
        dist[frontier] = hop
        reached |= frontier
    order = np.lexsort((np.broadcast_to(g.node_ids, (n, n)), dist), axis=-1)
    sizes = np.minimum(reached.sum(axis=1), max_size)
    width = int(sizes.max(initial=0))
    kept = order[:, :width]
    valid = np.arange(width) < sizes[:, None]
    in_block = valid[:, :, None] & valid[:, None, :]
    anchor_rows = (np.cumsum(sizes) - sizes).astype(np.int64)
    columns = np.broadcast_to(anchor_rows[:, None, None] + np.arange(width), in_block.shape)
    rows = int(sizes.sum())
    block_adjacency = sp.csr_matrix(
        (g.adjacency[kept[:, :, None], kept[:, None, :]][in_block],
         columns[in_block],
         np.concatenate(([0], np.cumsum(np.repeat(sizes, sizes))))),
        shape=(rows, rows))
    return SubgraphStack(
        raw_features=g.features[kept[valid]],
        block_adjacency=block_adjacency,
        anchor_rows=anchor_rows,
        num_nodes=n,
    )


def combine_stacks(stacks: list[SubgraphStack]) -> tuple[SubgraphStack, np.ndarray]:
    """Concatenate per-graph stacks; returns the combined stack and the graph
    index of each anchor row. The block matrix is the one
    ``scipy.sparse.block_diag`` gives, built by offsetting the CSR arrays."""
    if len(stacks) == 1:
        return stacks[0], np.zeros(stacks[0].num_nodes, dtype=np.int64)
    import scipy.sparse as sp

    mats = [s.block_adjacency for s in stacks]
    row_offsets = np.cumsum([0] + [m.shape[0] for m in mats])
    nnz_offsets = np.cumsum([0] + [m.nnz for m in mats])
    block_adjacency = sp.csr_matrix(
        (np.concatenate([m.data for m in mats]),
         np.concatenate([m.indices + row_offsets[i] for i, m in enumerate(mats)]),
         np.concatenate([[0]] + [m.indptr[1:] + nnz_offsets[i] for i, m in enumerate(mats)])),
        shape=(row_offsets[-1], row_offsets[-1]))
    combined = SubgraphStack(
        raw_features=np.vstack([s.raw_features for s in stacks]),
        block_adjacency=block_adjacency,
        anchor_rows=np.concatenate([s.anchor_rows + row_offsets[i]
                                    for i, s in enumerate(stacks)]),
        num_nodes=sum(s.num_nodes for s in stacks),
    )
    graph_seg = np.concatenate([np.full(s.num_nodes, i, dtype=np.int64)
                                for i, s in enumerate(stacks)])
    return combined, graph_seg


def stack_responses(stack: SubgraphStack, filters: list[GraphFilter],
                    encoder: FeatureEncoder, walk_cap: int | None = None) -> Tensor:
    """Response matrix (one row per anchor, one column per filter) for a
    combined subgraph stack. Entry (v, i) is the anchored walk kernel of v's
    neighbourhood against filter i; tests/oracles.py holds the per-pair
    reference it is checked against."""
    if stack.raw_features.shape[0] and np.all(stack.raw_features == stack.raw_features[0]):
        return _uniform_feature_responses(stack, filters, encoder, walk_cap)
    embedded = encoder.encode(stack.raw_features)
    columns = []
    for filt in filters:
        cap = filt.size if walk_cap is None else walk_cap
        s = embedded @ nk.transpose(nk.row_unit_normalize(filt.features))
        w = filt.effective_adjacency()
        m = s
        acc = s
        for _ in range(cap):
            m = nk.sparse_matmul(stack.block_adjacency, nk.matmul(m, w))
            acc = acc + m
        row_sums = (s * acc) @ Tensor(np.ones((filt.size, 1)))
        columns.append(nk.gather_rows(row_sums, stack.anchor_rows))
    return nk.hstack(columns)


def _uniform_feature_responses(stack: SubgraphStack, filters: list[GraphFilter],
                               encoder: FeatureEncoder, walk_cap: int | None) -> Tensor:
    """Exact shortcut when every node carries the same raw feature row.

    All rows of S coincide with one vector s per filter, so S has rank one,
    A^p S W^p = (A^p 1)(s^T W^p), and the anchored row sum collapses to
    walks_p(anchor) * (s^T W^p s). The per-anchor walk counts are constants;
    only the tiny scalar chain c_p carries gradients.
    """
    max_cap = max(filt.size if walk_cap is None else walk_cap for filt in filters)
    counts = np.ones((stack.raw_features.shape[0], 1))
    walk_columns = [counts[stack.anchor_rows, 0]]
    for _ in range(max_cap):
        counts = stack.block_adjacency @ counts
        walk_columns.append(counts[stack.anchor_rows, 0])
    anchor_walks = np.column_stack(walk_columns)
    shared_row = encoder.encode(stack.raw_features[:1])
    columns = []
    for filt in filters:
        cap = filt.size if walk_cap is None else walk_cap
        s = nk.row_unit_normalize(filt.features) @ nk.transpose(shared_row)
        w = filt.effective_adjacency()
        vec = s
        coeffs = [nk.transpose(s) @ vec]
        for _ in range(cap):
            vec = nk.matmul(w, vec)
            coeffs.append(nk.transpose(s) @ vec)
        columns.append(Tensor(anchor_walks[:, :cap + 1]) @ nk.vstack(coeffs))
    return nk.hstack(columns)
