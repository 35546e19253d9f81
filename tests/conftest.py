import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xgkn.graphs import Graph, NodeSet, Rng, induced_subgraph
from xgkn.kernel import Subgraphs, stack_responses, walk_inputs
from xgkn.record import replace


def path_graph(n: int, features=None) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], features=features)


def cycle_graph(n: int, features=None) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, features=features)


def star_graph(branches: int) -> Graph:
    return Graph.from_edges(branches + 1, [(0, i) for i in range(1, branches + 1)])


def house_graph() -> Graph:
    # 4-cycle 0-1-2-3 plus roof node 4 joined to 0 and 1
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])


def random_graph(n: int, p: float, rng: Rng, d: int = 2, binary_features: bool = False) -> Graph:
    """G(n, p) with a one-hot feature row of ``d`` classes drawn per node,
    the rows the kernel takes; ``binary_features`` draws multi-hot rows of
    ``d`` independent bits instead, for the brute-force oracles."""
    adj = np.zeros((n, n))
    draws = rng.random((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if draws[i, j] < p:
                adj[i, j] = adj[j, i] = 1.0
    if binary_features:
        feats = (rng.random((n, d)) < 0.5).astype(float)
    else:
        feats = np.eye(d)[rng.integers(0, d, size=n)]
    return Graph(adj, feats, np.arange(n))


def with_label(g: Graph, label: int | None) -> Graph:
    """``g`` with another class label."""
    return Graph(g.adjacency, g.features, g.node_ids, label=label, anchor=g.anchor)


def subgraphs_of(parents, picks) -> tuple[Subgraphs, list[Graph]]:
    """The subgraphs that each ``(parent index, positions)`` of ``picks``
    keeps of ``parents``: as a ``kernel.Subgraphs``, which lists the kept
    positions in node-id order, and built by ``induced_subgraph``."""
    positions = [sorted(kept, key=lambda pos: parents[pi].node_ids[pos]) for pi, kept in picks]
    masked = replace(Subgraphs.whole(parents), parent_of=np.array([pi for pi, _ in picks]),
                     positions=np.array(sum(positions, []), dtype=np.int64),
                     bounds=np.cumsum([0] + [len(kept) for kept in positions]))
    built = [induced_subgraph(parents[pi], NodeSet(tuple(parents[pi].node_ids[kept].tolist())))
             for pi, kept in picks]
    return masked, built


def stack_responses_of(stack, bank, encoder, walk_cap=None, training=False):
    """``kernel.stack_responses`` over ``stack``'s own ``walk_inputs``, as
    ``model.forward`` scores a chunk; the walks take the bank's filter size
    in steps unless ``walk_cap`` is given."""
    cap = bank.size if walk_cap is None else walk_cap
    return stack_responses(walk_inputs(stack, cap), bank, encoder, training)


def zero_grad(*tensors) -> None:
    """Clear the gradients that ``numkit.backward`` left on ``tensors``."""
    for t in tensors:
        t.grad = None


@pytest.fixture
def rng():
    return Rng(12345)
