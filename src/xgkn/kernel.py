"""Random-walk kernels on product graphs, differentiable in the filters.

The anchored kernel of node v's neighbourhood (adjacency A_v, node x
filter-node similarity rows S_v) against a filter with adjacency W sums the
product-graph walks of length p <= P whose first product node has the anchor
as its first coordinate, each weighted by the similarities at its two ends:

    k(v, f) = sum_{p=0..P} (u_p^T S_v) W^p S_v[anchor]^T,   u_p = A_v^p e_anchor.

The anchor walk weights u_p depend on the graph alone; the similarity rows
are computed once per node, not once per neighbourhood copy. Neither the
product graph nor any power of it is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import CapacityError
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

    def effective_adjacency(self) -> Tensor:
        squashed = nk.sigmoid(self.adjacency_logits)
        sym = (squashed + nk.transpose(squashed)) * Tensor(np.full((1, 1), 0.5))
        mask = np.ones((self.size, self.size)) - np.eye(self.size)
        return sym * Tensor(mask)

    def adjacency_values(self) -> np.ndarray:
        return self.effective_adjacency().values

    def parameters(self) -> list[Tensor]:
        return [self.adjacency_logits, self.features]


# Most entries the neighbourhood blocks of one graph may hold (n x width^2
# float64 values, 128 MiB), and the most a batch's zero-padded distance arrays
# may hold (graphs x n_max^2); build_stack checks both before allocating.
MAX_BLOCK_ENTRIES = 1 << 24


@dataclass(frozen=True)
class SubgraphStack:
    """The k-hop neighbourhoods of every node of a graph, or of a batch of
    graphs. Row v of ``members`` lists the nodes of v's neighbourhood, anchor
    first, as rows of ``raw_features``; ``blocks[v]`` is their induced
    adjacency. Both are zero-padded to the widest neighbourhood."""

    raw_features: np.ndarray
    members: np.ndarray
    blocks: np.ndarray
    num_nodes: int


def build_stack(graphs, k: int, max_size: int) -> tuple[SubgraphStack, np.ndarray]:
    """The combined stack of ``graphs`` and the graph index of each node:
    ``combine_stacks`` of their ``build_subgraph_stack``s, bit for bit, in one
    pass. The graphs are zero-padded to the largest; hop distances come from
    ``k`` batched matmuls, then each node's row keeps its nearest
    ``max_size`` nodes by (distance, node id), the anchor first. The padded
    arrays are built for consecutive groups of graphs that fit
    MAX_BLOCK_ENTRIES. tests/oracles.py keeps the per-node loop as the
    reference."""
    if k < 1:
        raise ValueError("hop radius k must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    graphs = list(graphs)
    counts = np.array([g.n for g in graphs], dtype=np.int64)
    graph_seg = np.repeat(np.arange(len(graphs)), counts)
    n_max = int(counts.max(initial=0))
    group = max(1, MAX_BLOCK_ENTRIES // max(n_max * n_max, 1))
    parts = [_nearest_nodes(graphs[lo:lo + group], n_max, k, max_size)
             for lo in range(0, len(graphs), group)]
    order = np.concatenate([part[0] for part in parts])
    sizes = np.concatenate([part[1] for part in parts])
    widths = np.concatenate([part[2] for part in parts])
    too_big = np.flatnonzero(counts * widths * widths > MAX_BLOCK_ENTRIES)
    if too_big.size:
        n, width = counts[too_big[0]], widths[too_big[0]]
        raise CapacityError(
            f"the neighbourhoods of a {n}-node graph need {n} x {width}^2 entries, "
            f"above the cap of {MAX_BLOCK_ENTRIES}; lower max_subgraph_size "
            f"(now {max_size})")
    # a graph's rows are as wide as its widest neighbourhood, zero beyond it
    width = int(widths.max(initial=0))
    inside = np.arange(width) < widths[graph_seg, None]
    local = np.where(inside, order[:, :width], 0)
    offsets = np.cumsum(counts) - counts
    members = np.where(inside, local + offsets[graph_seg, None], 0)
    valid = np.arange(width) < sizes[:, None]
    # each block gathers its graph's adjacency from the graphs' flattened
    # matrices, laid end to end
    flat = np.concatenate([np.zeros(0)] + [g.adjacency.ravel() for g in graphs])
    row_starts = (np.cumsum(counts * counts) - counts * counts)[graph_seg, None] \
        + local * counts[graph_seg, None]
    blocks = np.where(valid[:, :, None] & valid[:, None, :],
                      flat[row_starts[:, :, None] + local[:, None, :]], 0.0)
    raw = graphs[0].features if len(graphs) == 1 else np.vstack([g.features for g in graphs])
    return SubgraphStack(raw_features=raw, members=members, blocks=blocks,
                         num_nodes=int(counts.sum())), graph_seg


def _nearest_nodes(graphs, n_max: int, k: int, max_size: int):
    """For the node rows of ``graphs`` (zero-padded to ``n_max`` nodes): every
    node of the row's graph in (hop distance up to k + 1, node id) order, the
    neighbourhood sizes, and each graph's widest neighbourhood."""
    linked = np.zeros((len(graphs), n_max, n_max))
    ids = np.zeros((len(graphs), n_max), dtype=np.int64)
    for i, g in enumerate(graphs):
        linked[i, :g.n, :g.n] = g.adjacency != 0
        ids[i, :g.n] = g.node_ids
    real = np.arange(n_max) < np.array([g.n for g in graphs])[:, None]
    reached = np.broadcast_to(np.eye(n_max, dtype=bool), linked.shape).copy()
    dist = np.where(reached, 0, k + 1)
    for hop in range(1, k + 1):
        # path counts in float64 are exact, and BLAS is faster than bool matmul
        frontier = (reached @ linked != 0) & ~reached
        dist[frontier] = hop
        reached |= frontier
    # padding nodes sort after every node of the graph
    dist = np.where(real[:, None, :], dist, k + 2)
    order = np.lexsort((np.broadcast_to(ids[:, None, :], dist.shape), dist), axis=-1)
    sizes = np.minimum(reached.sum(axis=2), max_size)
    return order[real], sizes[real], np.where(real, sizes, 0).max(axis=1, initial=0)


def build_subgraph_stack(g: Graph, k: int, max_size: int) -> SubgraphStack:
    """The ``graphs.k_hop_neighborhood`` of every node of ``g``, in node
    order: ``build_stack`` of a batch of one."""
    return build_stack([g], k, max_size)[0]


def combine_stacks(stacks: list[SubgraphStack]) -> tuple[SubgraphStack, np.ndarray]:
    """Concatenate per-graph stacks; returns the combined stack and the graph
    index of each node."""
    counts = [s.num_nodes for s in stacks]
    graph_seg = np.repeat(np.arange(len(stacks)), counts)
    if len(stacks) == 1:
        return stacks[0], graph_seg
    offsets = np.cumsum([0] + counts)
    width = max(s.members.shape[1] for s in stacks)
    members = np.zeros((offsets[-1], width), dtype=np.int64)
    blocks = np.zeros((offsets[-1], width, width))
    for s, lo, hi in zip(stacks, offsets, offsets[1:]):
        w = s.members.shape[1]
        members[lo:hi, :w] = s.members + lo
        blocks[lo:hi, :w, :w] = s.blocks
    combined = SubgraphStack(raw_features=np.vstack([s.raw_features for s in stacks]),
                             members=members, blocks=blocks, num_nodes=int(offsets[-1]))
    return combined, graph_seg


def anchor_walks(blocks: np.ndarray, steps: int) -> np.ndarray:
    """The walk table: ``out[p, v] = A_v^p e_anchor`` for p = 0..steps, the
    weighted counts of the length-p walks from v to each member of its
    neighbourhood (zero at padding)."""
    n, width = blocks.shape[:2]
    walks = np.zeros((steps + 1, n, width))
    walks[0, :, :1] = 1.0
    for p in range(steps):
        walks[p + 1] = (blocks @ walks[p][:, :, None])[:, :, 0]
    return walks


def stack_responses(stack: SubgraphStack, filters: list[GraphFilter],
                    encoder: FeatureEncoder, walk_cap: int | None = None) -> Tensor:
    """Response matrix (one row per node, one column per filter): entry
    (v, f) is the anchored walk kernel of v's neighbourhood against filter f,
    sum over f's columns of S[v] * sum_p Y_p W^p, where Y_p = u_p^T S[members
    of v] (zero in the columns of filters that walk fewer than p steps) and W
    is the block-diagonal filter adjacency. The walk sum is one
    ``numkit.walk_horner`` node with a hand-written backward.
    tests/oracles.py holds the per-pair reference and the per-step autograd
    composition."""
    caps = [filt.size if walk_cap is None else walk_cap for filt in filters]
    walks = anchor_walks(stack.blocks, max(caps))
    raw = stack.raw_features
    if raw.shape[0] and np.all(raw == raw[0]):
        counts = np.ascontiguousarray(walks.sum(axis=2).T)
        return _uniform_feature_responses(counts, raw[:1], filters, encoder, caps)
    sizes = [filt.size for filt in filters]
    filter_rows = nk.row_unit_normalize(nk.vstack([filt.features for filt in filters]))
    s = encoder.encode(raw) @ nk.transpose(filter_rows)
    w = nk.block_diag([filt.effective_adjacency() for filt in filters])
    masks = np.repeat(np.array(caps) >= np.arange(max(caps) + 1)[:, None], sizes, axis=1)
    h = nk.walk_horner(s, w, stack.members, walks, masks)
    owner = np.repeat(np.arange(len(filters)), sizes)
    return (s * h) @ Tensor((owner[:, None] == np.arange(len(filters))).astype(np.float64))


def _uniform_feature_responses(anchor_counts: np.ndarray, shared_raw: np.ndarray,
                               filters: list[GraphFilter], encoder: FeatureEncoder,
                               caps: list[int]) -> Tensor:
    """Exact shortcut when every node carries the same raw feature row: S
    has rank one, and the response is sum_p anchor_counts[v, p] * s^T W^p s,
    with the length-p walk counts from v (row sums of the walk table) as
    constants. The scalars s^T W^p s of every filter come from one
    ``numkit.rank_one_walks`` node with a hand-written backward;
    tests/oracles.py holds the per-filter autograd chain it reproduces."""
    return nk.rank_one_walks([nk.row_unit_normalize(filt.features) for filt in filters],
                             encoder.encode(shared_raw),
                             [filt.effective_adjacency() for filt in filters],
                             anchor_counts, caps)
