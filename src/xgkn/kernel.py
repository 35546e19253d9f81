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

import numpy as np

from . import numkit as nk
from .errors import CapacityError, FeatureRowError, ShapeError
from .graphs import Graph, Rng
from .numkit import Tensor
from .record import Record, replace


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


class FilterBank:
    """The model's F trainable graphs of ``size`` nodes each, stacked: rows
    f·size to f·size + size - 1 of both tensors belong to filter f. Free
    adjacency logits ([F·size, size]) are squashed through a sigmoid and
    symmetrized with a zero diagonal, so entries stay in [0, 1]; ``features``
    ([F·size, embed_dim]) holds an embedding row per filter node."""

    def __init__(self, adjacency_logits: Tensor, features: Tensor):
        rows, size = adjacency_logits.shape
        if rows % size or features.shape[0] != rows:
            raise ShapeError(f"a filter bank needs [F·size, size] logits and a feature row "
                             f"per node, got {adjacency_logits.shape} and {features.shape}")
        self.adjacency_logits = adjacency_logits
        self.features = features

    @staticmethod
    def init(num_filters: int, size: int, embed_dim: int, rng: Rng) -> "FilterBank":
        """Filter f draws its logits, then its embedding rows, from
        ``rng.derive("filter", f)``."""
        logits, features = [], []
        for f in range(num_filters):
            draw = rng.derive("filter", f)
            logits.append(draw.normal(size=(size, size)))
            features.append(draw.normal(size=(size, embed_dim)))
        return FilterBank(Tensor(np.vstack(logits), requires_grad=True),
                          Tensor(np.vstack(features), requires_grad=True))

    @property
    def size(self) -> int:
        return self.adjacency_logits.shape[1]

    @property
    def num_filters(self) -> int:
        return self.adjacency_logits.shape[0] // self.size

    def blocks(self, values: np.ndarray) -> np.ndarray:
        """A bank-shaped [F·size, cols] array as its F blocks, [F, size, cols]."""
        return values.reshape(self.num_filters, self.size, -1)

    def effective_adjacency(self) -> Tensor:
        """The F filter adjacencies, stacked as the logits are: one
        ``numkit.symmetric_adjacency`` node."""
        return nk.symmetric_adjacency(self.adjacency_logits)

    def adjacency_values(self) -> np.ndarray:
        """The F filter adjacencies as [F, size, size]."""
        return self.blocks(self.effective_adjacency().values)

    def parameters(self) -> list[Tensor]:
        return [self.adjacency_logits, self.features]


# Most entries the neighbourhood blocks of one graph may hold (n x width^2
# float64 values, 128 MiB), and the most a batch's zero-padded distance arrays
# may hold (graphs x n_max^2); build_stack checks both before allocating.
MAX_BLOCK_ENTRIES = 1 << 24


class SubgraphStack(Record):
    """The k-hop neighbourhoods of every node of a graph, or of a batch of
    graphs. Row v of ``members`` lists the nodes of v's neighbourhood, anchor
    first, as rows of ``raw_features``; ``blocks[v]`` is their induced
    adjacency. Both are zero-padded to the widest neighbourhood."""

    raw_features: np.ndarray
    members: np.ndarray
    blocks: np.ndarray
    num_nodes: int


class Subgraphs(Record):
    """Induced subgraphs of parent graphs, never built as graphs: subgraph i
    keeps the positions ``positions[bounds[i]:bounds[i + 1]]`` of parent
    ``parent_of[i]``, in that order. The parents' flattened adjacencies (and
    a zero tail as long as the largest, so that a padded read stays in
    bounds), node ids and feature rows are laid end to end once."""

    adjacency: np.ndarray
    parent_sizes: np.ndarray
    node_ids: np.ndarray
    features: np.ndarray
    parent_of: np.ndarray
    positions: np.ndarray
    bounds: np.ndarray

    @staticmethod
    def whole(graphs) -> "Subgraphs":
        """``graphs`` as subgraphs of themselves, each keeping every position."""
        sizes = np.array([g.n for g in graphs], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        return Subgraphs(
            np.concatenate([g.adjacency.ravel() for g in graphs]
                           + [np.zeros(sizes.max(initial=0))]), sizes,
            np.concatenate([np.zeros(0, dtype=np.int64)] + [g.node_ids for g in graphs]),
            graphs[0].features if len(graphs) == 1
            else np.vstack([g.features for g in graphs] or [np.zeros((0, 0))]),
            np.arange(len(graphs)), np.arange(bounds[-1]) - np.repeat(bounds[:-1], sizes), bounds)

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, part: slice) -> "Subgraphs":
        lo, hi, _ = part.indices(len(self))
        return replace(self, parent_of=self.parent_of[lo:hi],
                       positions=self.positions[self.bounds[lo]:self.bounds[hi]],
                       bounds=self.bounds[lo:hi + 1] - self.bounds[lo])


def build_stack(graphs, k: int, max_size: int) -> tuple[SubgraphStack, np.ndarray]:
    """The combined stack of ``graphs`` (a list of graphs or ``Subgraphs``)
    and the graph index of each node: ``combine_stacks`` of their
    ``build_subgraph_stack``s, bit for bit, in one pass. The graphs are
    zero-padded to the largest, each gathering its adjacency from its
    parent's; hop distances come from ``k`` batched matmuls over them, then
    each node's row keeps its nearest ``max_size`` nodes by (distance, node
    id), the anchor first. The padded arrays are built for consecutive groups
    of graphs that fit MAX_BLOCK_ENTRIES. tests/oracles.py keeps the
    per-node loop as the reference."""
    if k < 1:
        raise ValueError("hop radius k must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    whole = not isinstance(graphs, Subgraphs)
    items = Subgraphs.whole(list(graphs)) if whole else graphs
    counts, offsets = np.diff(items.bounds), items.bounds[:-1]
    graph_seg = np.repeat(np.arange(counts.size), counts)
    parent, pos, spans = items.parent_of[graph_seg], items.positions, items.parent_sizes
    rows = (np.cumsum(spans) - spans)[parent] + pos
    # entry (a, b) of a graph's adjacency is adjacency[row_base[a] + pos[b]]
    row_base = (np.cumsum(spans * spans) - spans * spans)[parent] + pos * spans[parent]
    n_max = int(counts.max(initial=0))
    group = max(1, MAX_BLOCK_ENTRIES // max(n_max * n_max, 1))
    parts = [_nearest_nodes(items.adjacency, row_base, pos, items.node_ids[rows],
                            offsets[lo:lo + group], counts[lo:lo + group], n_max, k, max_size)
             for lo in range(0, counts.size, group)]
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
    members = np.where(inside, order[:, :width] + offsets[graph_seg, None], 0)
    valid = np.arange(width) < sizes[:, None]
    blocks = np.where(valid[:, :, None] & valid[:, None, :],
                      items.adjacency[row_base[members][:, :, None] + pos[members][:, None, :]],
                      0.0)
    return SubgraphStack(raw_features=items.features if whole else items.features[rows],
                         members=members, blocks=blocks, num_nodes=int(counts.sum())), graph_seg


def _nearest_nodes(adjacency, row_base, pos, ids, offsets, counts, n_max: int, k: int,
                   max_size: int):
    """For the node rows of ``build_stack``'s graphs ``offsets``, zero-padded
    to ``n_max`` nodes: the row's nearest ``max_size`` nodes in (hop distance,
    node id) order, the neighbourhood sizes, and each graph's widest one."""
    real = np.arange(n_max) < counts[:, None]
    node = np.where(real, offsets[:, None] + np.arange(n_max), 0)
    linked = real[:, :, None] & real[:, None, :] \
        & (adjacency[row_base[node][:, :, None] + pos[node][:, None, :]] != 0)
    dist = np.where(linked, 1, k + 1)
    dist[:, np.arange(n_max), np.arange(n_max)] = 0
    reached = dist <= 1
    for hop in range(2, k + 1):
        # path counts in float64 are exact, and BLAS is faster than bool matmul
        frontier = (reached @ linked.astype(np.float64) != 0) & ~reached
        dist[frontier] = hop
        reached |= frontier
    # one key per (distance, node id) pair, unique within a graph: the id's
    # rank in its graph breaks distance ties, and padding ranks last
    rank = np.argsort(np.argsort(np.where(real, ids[node], ids.max(initial=0) + 1), axis=1),
                      axis=1)
    order = np.argsort(dist * n_max + rank[:, None, :], axis=-1)[:, :, :max_size]
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
        # binary blocks give integer counts, exact in any summation order
        walks[p + 1] = np.einsum("vab,vb->va", blocks, walks[p])
    return walks


def _classes(raw: np.ndarray) -> np.ndarray:
    """The hot column of each of the one-hot rows ``raw`` (a single 1.0,
    zeros elsewhere); constant features, one column of ones, are one-hot in
    K = 1 class. Any other rows are refused."""
    hot = raw == 1.0
    one_hot = (hot.sum(axis=1) == 1) & np.all(hot | (raw == 0.0), axis=1)
    if not np.all(one_hot):
        row = int(np.argmin(one_hot))
        entries = {int(c): float(raw[row, c]) for c in np.flatnonzero(raw[row])}
        raise FeatureRowError(
            f"node feature rows must be one-hot (a single 1.0, zeros elsewhere); row {row} "
            f"of {raw.shape[0]} has nonzero entries {entries}")
    return np.argmax(raw, axis=1)


class WalkInputs(Record):
    """The graph side of the kernel responses of a batch of node rows: their
    raw one-hot features, the walk cap, each row's class, and the class
    table grouped by class: ``order`` is the stable class order of the rows,
    and ``table[i, b, p]`` counts the length-p anchor walks of row
    ``order[i]`` that end at a node of class b."""

    raw_features: np.ndarray
    cap: int
    table: np.ndarray
    classes: np.ndarray
    order: np.ndarray


def _class_table(stack: SubgraphStack, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The class of each row of ``stack`` and its class table, in row
    order: the walk table summed by the class of each member. Walk counts
    are integers and member rows 0/1, so the batched product is exact in any
    summation order; padding members have no walks."""
    raw = stack.raw_features
    classes = _classes(raw)
    walks = anchor_walks(stack.blocks, cap)
    return classes, np.matmul(raw[stack.members].transpose(0, 2, 1), walks.transpose(1, 2, 0))


def _grouped(raw: np.ndarray, cap: int, table: np.ndarray, classes: np.ndarray,
             rows: np.ndarray) -> WalkInputs:
    """The walk inputs of ``rows`` of the row-order arrays, their class
    table gathered once, grouped by class."""
    classes = classes[rows]
    order = np.argsort(classes, kind="stable")
    return WalkInputs(raw[rows], cap, table[rows[order]], classes, order)


def walk_inputs(stack: SubgraphStack, cap: int) -> WalkInputs:
    """The graph side of ``stack``'s responses to filters walking ``cap``
    steps."""
    classes, table = _class_table(stack, cap)
    return _grouped(stack.raw_features, cap, table, classes, np.arange(classes.size))


class SplitWalks:
    """The graph side of a training split, built once: the classes and the
    class table of ``combine_stacks`` of its graphs' ``stacks``, whose rows
    are refused here unless they are one-hot. ``batch`` hands out the rows
    of any of its graphs, in batch order.

    A batch's inputs equal, bit for bit, ``walk_inputs`` of
    ``combine_stacks`` of its graphs' stacks: every array holds one entry
    per row, which no other row and no padding width changes. Data graphs
    have binary adjacency, so a walk table holds exact integer walk
    counts."""

    def __init__(self, stacks: list[SubgraphStack], cap: int):
        stack = combine_stacks(stacks)[0]
        self.raw_features, self.cap = stack.raw_features, cap
        self.classes, self.table = _class_table(stack, cap)
        self.sizes = np.array([s.num_nodes for s in stacks], dtype=np.int64)
        self.starts = np.cumsum(self.sizes) - self.sizes

    def batch(self, graph_ids) -> tuple[WalkInputs, np.ndarray]:
        """The walk inputs of the graphs ``graph_ids`` (positions in the
        split's ``stacks``), in that order, and the batch position of each
        row's graph."""
        ids = np.asarray(graph_ids, dtype=np.int64)
        sizes = self.sizes[ids]
        graph_seg = np.repeat(np.arange(len(ids)), sizes)
        # split row = batch row + shift, per graph
        shift = (self.starts[ids] - (np.cumsum(sizes) - sizes))[graph_seg]
        rows = np.arange(graph_seg.size) + shift
        return _grouped(self.raw_features, self.cap, self.table, self.classes, rows), graph_seg


def _filter_side(bank: FilterBank, encoder: FeatureEncoder) -> tuple[Tensor, Tensor, Tensor]:
    """The bank's normalized feature rows, the encoder's K encoded class rows
    and the bank's effective adjacencies."""
    return (nk.row_unit_normalize(bank.features),
            encoder.encode(np.eye(encoder.weight.shape[0])), bank.effective_adjacency())


def filter_products(bank: FilterBank, encoder: FeatureEncoder, cap: int) -> np.ndarray:
    """The class products of the filter side, values only
    (``numkit.class_products``): what ``stack_responses`` computes from the
    parameters on every call unless it is handed them. Inference parameters
    do not change, so ``model.forward_batch`` computes them once for all its
    chunks."""
    rows, shared, adjacency = _filter_side(bank, encoder)
    return nk.class_products(rows.values, shared.values, bank.blocks(adjacency.values), cap)[1]


def stack_responses(stack: WalkInputs, bank: FilterBank, encoder: FeatureEncoder,
                    training: bool = False, products: np.ndarray | None = None) -> Tensor:
    """Response matrix of the node rows whose graph side is ``stack`` (one
    row per node, one column per filter): entry (v, f) is sum over f's
    columns of S[v] * sum_p Y_p W_f^p, p up to the walk cap, Y_p = u_p^T
    S[members of v]. Every row is one-hot, so S[v] is the encoded row of v's
    class and the response is sum_{b,p} table[v, b, p] * s_{f,b}^T W_f^p
    s_{f,class(v)} over the K encoded classes: one autograd node,
    ``numkit.class_walks``, whose products are row-local outside
    ``training``. Its F·K²·(cap + 1) class products are bounded when the
    model is built. Handed the ``filter_products`` of the bank and encoder
    (inference only), it takes the same row-local products of them, values
    only, with no autograd node.

    tests/oracles.py holds the per-pair reference, the per-filter chains and
    the Horner walk sum over feature rows of any kind."""
    if products is not None:
        return Tensor(nk.class_table_product(stack.table, stack.classes, stack.order,
                                             products, row_local=True))
    return nk.class_walks(*_filter_side(bank, encoder), stack.table, stack.classes, stack.cap,
                          row_local=not training, order=stack.order)
