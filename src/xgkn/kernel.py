"""Random-walk kernels on product graphs, differentiable in the filters.

The anchored variant counts only walks whose starting product node has the
anchor as its first coordinate; with the similarity matrix S and walk cap P it
evaluates sum_p of the anchor row of S .* (A^p S W^p), computed by the
recurrence M <- A M W so no product-graph power is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numkit as nk
from .graphs import Graph, Rng, k_hop_neighborhood
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
    block_adjacency: sp.csr_matrix
    anchor_rows: np.ndarray
    num_nodes: int


def build_subgraph_stack(g: Graph, k: int, max_size: int) -> SubgraphStack:
    blocks = []
    features = []
    anchors = []
    offset = 0
    for pos in range(g.n):
        nb = k_hop_neighborhood(g, int(g.node_ids[pos]), k, max_size)
        blocks.append(nb.adjacency)
        features.append(nb.features)
        anchors.append(offset)
        offset += nb.n
    return SubgraphStack(
        raw_features=np.vstack(features),
        block_adjacency=sp.block_diag(blocks, format="csr"),
        anchor_rows=np.array(anchors, dtype=np.int64),
        num_nodes=g.n,
    )


def combine_stacks(stacks: list[SubgraphStack]) -> tuple[SubgraphStack, np.ndarray]:
    """Concatenate per-graph stacks; returns the combined stack and the graph
    index of each anchor row."""
    if len(stacks) == 1:
        return stacks[0], np.zeros(stacks[0].num_nodes, dtype=np.int64)
    offsets = np.cumsum([0] + [s.raw_features.shape[0] for s in stacks])
    combined = SubgraphStack(
        raw_features=np.vstack([s.raw_features for s in stacks]),
        block_adjacency=sp.block_diag([s.block_adjacency for s in stacks], format="csr"),
        anchor_rows=np.concatenate([s.anchor_rows + offsets[i] for i, s in enumerate(stacks)]),
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
