"""Independent reference implementations used to pin expected values.

Most of them are deliberately naive (enumeration, BFS, permutations) and share
no code with the library paths they check.

The walk-kernel references evaluate one graph pair at a time what
``kernel.stack_responses`` computes for a whole stack. ``rw_kernel`` and
``anchored_rw_kernel`` run the dense matrix recurrence M <- A M W over one
neighbourhood and read the anchor row of S * sum_p A^p S W^p; the package
instead computes the same number from the anchor walk weights,
sum_p (u_p^T S) W^p S[anchor]^T with u_p = A^p e_anchor (equal because A is
symmetric). The references reuse the package's ``Graph``, its numkit ops and
the filter and encoder parameterisation, so that their gradients can be
checked too, but not the walk table, the Horner recurrence or the rank-one
shortcut they are compared against. ``neighbourhood_walks_loop`` builds the
walk weights themselves one ``k_hop_neighborhood`` at a time, and
``rank_one_walks_chain`` is the per-filter chain for ``class_walks``
at K = 1 (constant features). ``walk_horner`` is the walk sum over any
feature rows as one hand-differentiated node, which ``walk_horner_per_step``,
its per-step chain, must reproduce; ``walk_horner_responses`` builds kernel
responses from it, the reference for the package's class walks over one-hot
rows, the one kind of row the package takes.

``GraphFilter`` is one filter as its own pair of leaves, with its own
parameter chain; ``stack_responses_per_filter`` composes the kernel
responses from a list of them, with a dense block-diagonal walk for rows
that are not all equal, and is the reference that ``kernel.FilterBank`` and
``kernel.stack_responses`` must reproduce. The stacking, slicing and
block-diagonal ops it needs are private copies here.
``walk_inputs_per_batch`` is the graph side of a training batch built from
the batch's own stacks, which ``kernel.SplitWalks`` takes from the split's.

The chains of autograd nodes that ``numkit``'s fused ops replace are
references too: ``symmetric_adjacency_chain``, ``negative_entropy_chain``
and ``batch_norm_chain``, built from the elementwise ops the package no
longer uses (``log``, ``sqrt``, ``sigmoid``, ``clip_min``, ``tsum``,
``gather_rows``, ``block_transpose``), and ``adam_per_tensor``, the Adam
loop over the tensors that ``numkit.adam_step``'s flat buffer replaces.

The module also holds what only the tests use: the central-difference
gradient check and the ``exp`` op it is run on, the one-call
``explain_graph``, the ``AnchorError`` that ``anchored_rw_kernel`` raises
and the TU writer. Per-graph loops are the
references for the package's batched code: the per-node neighbourhoods, and
the Monte-Carlo and model-level metrics that score one graph per
``forward_batch`` call, the id-list and node-by-node samplers that
``metrics._draw_samples`` and ``graphs.perturb_features`` replace with
position masks, and the pair-by-pair and running-sum loops that
``graphs.perturb_edges`` and ``explainer.threshold_explanation`` replace with
array operations. The Shapley enumeration that checks the depth-1 closed form
is ``explainer.enumerated_shapley``, which depth-2 predictors use.
"""

import itertools
import math
import os

import numpy as np

from xgkn import numkit as nk
from xgkn.errors import EmptySelectionError, NumericError, ShapeError, XgknError
from xgkn.explainer import Explanation, node_importance, threshold_explanation
from xgkn.graphs import (
    Graph,
    NodeSet,
    induced_subgraph,
    iou_nodes,
    k_hop_neighborhood,
    perturb_edges,
    perturb_features,
)
from xgkn.kernel import FeatureEncoder, FilterBank, anchor_walks, combine_stacks, walk_inputs
from xgkn.metrics import _explanation_edges, _result
from xgkn.model import forward_batch, perturb_filters


# ---------------------------------------------------------------------------
# the tape: 2-D tensors with reverse-mode gradients over any program of ops,
# which the package's straight-line training step replaces. The gradient
# and finite-difference tests run the numkit ops through it (``lift``).


class Tensor:
    """A 2-D value in the computation graph.

    ``requires_grad`` marks trainable leaves; op outputs inherit the flag from
    their parents. ``backward`` accumulates into the ``grad`` of leaves only
    (clear it between steps with ``zero_grad``). A leaf made from a 2-D
    float64 array holds that array itself, so a test can wrap a model's
    parameters and see its in-place edits."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {v.shape}")
        self.values = v
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(values, parents, backward_fn) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.values + b.values, (a, b),
               lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.values - b.values, (a, b),
               lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.values * b.values, (a, b),
               lambda g: (_unbroadcast(g * b.values, a.shape),
                          _unbroadcast(g * a.values, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.values / b.values, (a, b),
               lambda g: (_unbroadcast(g / b.values, a.shape),
                          _unbroadcast(-g * a.values / (b.values * b.values), b.shape)))


def neg(a: Tensor) -> Tensor:
    return _op(-a.values, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    return _op(a.values @ b.values, (a, b),
               lambda g: (g @ b.values.T, a.values.T @ g))


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into ``grad`` of every requires_grad leaf
    reachable from ``output``, in a topological order of the graph; op
    outputs keep no ``grad``. Every gradient, intermediate ones included, is
    checked for non-finite entries. ``output`` must be scalar."""
    if output.values.shape != (1, 1):
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    order = []
    visited = set()
    stack = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    grads = {id(output): np.ones((1, 1))}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient encountered")
        if node._backward_fn is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def zero_grad(*tensors) -> None:
    """Clear the gradients that ``backward`` left on ``tensors``."""
    for t in tensors:
        t.grad = None


def lift(op, inputs: int = 1):
    """The numkit op ``op`` as a node of the tape: its first ``inputs``
    arguments are its differentiable inputs (Tensors, or arrays taken as
    constants), the others pass through. Returns the output Tensor, followed
    by the op's other values when it has any."""
    def lifted(*args, **kwargs):
        parents = tuple(_as_tensor(a) for a in args[:inputs])
        values, *extras, back = op(*(p.values for p in parents), *args[inputs:], **kwargs)
        out = _op(values, parents, back)
        return (out, *extras) if extras else out

    return lifted


row_unit_normalize = lift(nk.row_unit_normalize)
segment_sum_rows = lift(nk.segment_sum_rows)
negative_entropy = lift(nk.negative_entropy)
batch_norm = lift(nk.batch_norm, 3)
segment_col_max = lift(nk.segment_col_max)
cross_entropy = lift(nk.cross_entropy)
relu = lift(nk.relu)
affine = lift(nk.affine, 3)


def symmetric_adjacency(logits) -> Tensor:
    """``numkit.symmetric_adjacency`` under the mask of a stack shaped as
    ``logits``."""
    size = logits.shape[1]
    mask = nk.off_diagonal_mask(logits.shape[0] // size, size)
    return lift(nk.symmetric_adjacency)(logits, mask)


def class_walks(rows, shared, adjacencies, table: np.ndarray, classes: np.ndarray, cap: int,
                row_local: bool = False, order: np.ndarray | None = None) -> Tensor:
    """The kernel's class walks as one node of the tape: column f of the
    output is ``sum_{b,p} table[v, b, p] * c_{f,p}[b, a]`` at row v of class
    ``a = classes[v]``, ``numkit.class_table_product`` of
    ``numkit.class_products``, and the backward runs theirs. ``table`` is
    each row's (n, K, cap + 1) class table in row order, or grouped by class
    when ``order``, the stable class order of the rows, is given."""
    size, (k, dim) = adjacencies.shape[1], shared.shape
    n = classes.shape[0]
    if rows.shape != (adjacencies.shape[0], dim) or adjacencies.shape[0] % size \
            or table.shape != (n, k, cap + 1) \
            or (n and not 0 <= classes.min() <= classes.max() < k):
        raise ShapeError(f"class_walks: rows {rows.shape}, shared {shared.shape}, "
                         f"adjacencies {adjacencies.shape}, table {table.shape}, "
                         f"classes {classes.shape}, cap {cap} do not fit")
    if order is None:
        order = np.argsort(classes, kind="stable")
        table = table[order]
    products, back_products = nk.class_products(rows.values, shared.values,
                                                adjacencies.values, cap)
    out, back = nk.class_table_product(table, nk.class_parts(classes, k), order, products,
                                       row_local)
    return _op(out, (rows, shared, adjacencies), lambda g: back_products(*back(g)))


def encode(encoder, raw: np.ndarray) -> Tensor:
    """``kernel.FeatureEncoder.encode`` on the tape, differentiable in the
    encoder's weight when it is a leaf."""
    return row_unit_normalize(Tensor(raw) @ _as_tensor(encoder.weight))


def effective_adjacency(bank) -> Tensor:
    """``kernel.FilterBank.effective_adjacency`` on the tape."""
    return symmetric_adjacency(_as_tensor(bank.adjacency_logits))


def stack_responses_of(stack, bank, encoder, walk_cap=None, training=False) -> Tensor:
    """``kernel.stack_responses`` over ``stack``'s own ``walk_inputs`` on the
    tape, as ``model.forward`` scores a chunk (row-local unless
    ``training``); the walks take the bank's filter size in steps unless
    ``walk_cap`` is given. Leaves in the bank or the encoder get gradients."""
    cap = bank.size if walk_cap is None else walk_cap
    inputs = walk_inputs(stack, cap)
    return class_walks(row_unit_normalize(_as_tensor(bank.features)),
                       encode(encoder, np.eye(encoder.weight.shape[0])),
                       effective_adjacency(bank), inputs.table, inputs.classes, cap,
                       row_local=not training, order=inputs.order)


def tape_step(model, inputs, graph_seg: np.ndarray, labels, chains: bool = False,
              responses=None):
    """One training step of ``model`` on the tape, the reference for
    ``model.train_step`` and ``numkit.backward``: the graph the package's
    training built before its explicit step, with the layers as the tape's
    own product, sum and relu. ``chains`` takes the chains of nodes that the
    fused adjacency, entropy and batch-norm ops replace; ``responses``, given
    ``inputs`` and a ``FilterBank`` and ``FeatureEncoder`` of the leaves,
    takes the kernel responses' place. Batch norm moves
    the running statistics as the package's step does. Returns the loss, the
    logits and a leaf per parameter, holding the model's own arrays, in
    ``parameters`` order."""
    cfg = model.config
    leaves = [Tensor(p, requires_grad=True) for p in model.parameters()]
    weight, logits, features, gamma, beta, *layers = leaves
    if responses is None:
        adjacency = (symmetric_adjacency_chain if chains else symmetric_adjacency)(logits)
        shared = row_unit_normalize(Tensor(np.eye(weight.shape[0])) @ weight)
        r = class_walks(row_unit_normalize(features), shared, adjacency, inputs.table,
                        inputs.classes, inputs.cap, order=inputs.order)
    else:
        r = responses(inputs, FilterBank(logits, features), FeatureEncoder(weight))
    num_graphs = len(labels)
    if cfg.agg_mode == "sum":
        z = segment_sum_rows(r, graph_seg, num_graphs)
    elif cfg.agg_mode == "max":
        z = segment_col_max(r, graph_seg, num_graphs)[0]
    else:
        z = (negative_entropy_chain if chains else negative_entropy)(
            r, graph_seg, num_graphs, cfg.entropy_eps, cfg.norm_scope)[0]
    out, mean, var = (batch_norm_chain if chains else batch_norm)(z, gamma, beta, cfg.bn_eps)
    pred, mom = model.predictor, cfg.bn_momentum
    pred.running_mean = (1 - mom) * pred.running_mean + mom * mean
    pred.running_var = (1 - mom) * pred.running_var + mom * var
    for i, (w, b) in enumerate(zip(layers[::2], layers[1::2])):
        if i:
            out = relu(out)
        out = out @ w + b
    return cross_entropy(out, labels), out, leaves


def flat_grad(leaves: list[Tensor]) -> np.ndarray:
    """The leaves' gradients laid end to end, as ``numkit.AdamState.flat``
    lays out the parameters."""
    return np.concatenate([np.zeros(0)] + [t.grad.ravel() for t in leaves])


def as_leaves(*holders) -> list[Tensor]:
    """Make the parameter arrays of package ``FilterBank``s (logits, then
    rows) and ``FeatureEncoder``s (weight) leaves of the tape, in place; each
    leaf holds the array it replaces. Returns the leaves in that order."""
    leaves = []
    for holder in holders:
        names = ("weight",) if hasattr(holder, "weight") else ("adjacency_logits", "features")
        for name in names:
            leaf = Tensor(getattr(holder, name), requires_grad=True)
            setattr(holder, name, leaf)
            leaves.append(leaf)
    return leaves


class AnchorError(XgknError, ValueError):
    """A subgraph is missing the anchor node required by the kernel."""


def explain_graph(model, g: Graph, p: float) -> Explanation:
    """Importance map and thresholded explanation of one graph in one call."""
    return threshold_explanation(g, node_importance(model, g), p)


def exp(a: Tensor) -> Tensor:
    """Elementwise exp as an autograd op: the package has no use for it, the
    gradient tests chain it with the ops it has."""
    out_values = np.exp(a.values)
    return _op(out_values, (a,), lambda g: (g * out_values,))


def transpose(a: Tensor) -> Tensor:
    return _op(a.values.T, (a,), lambda g: (g.T,))


def log(a: Tensor) -> Tensor:
    return _op(np.log(a.values), (a,), lambda g: (g / a.values,))


def sqrt(a: Tensor) -> Tensor:
    out_values = np.sqrt(a.values)
    return _op(out_values, (a,), lambda g: (g * 0.5 / out_values,))


def sigmoid(a: Tensor) -> Tensor:
    out_values = 1.0 / (1.0 + np.exp(-a.values))
    return _op(out_values, (a,), lambda g: (g * out_values * (1.0 - out_values),))


def clip_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes only where a > lo."""
    mask = a.values > lo
    return _op(np.maximum(a.values, lo), (a,), lambda g: (g * mask,))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum to (1, 1) when axis is None, else keepdims sum along the axis."""
    if axis is None:
        values = a.values.sum().reshape(1, 1)
        return _op(values, (a,), lambda g: (np.broadcast_to(g, a.shape),))
    values = a.values.sum(axis=axis, keepdims=True)
    return _op(values, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    return _op(a.values[idx], (a,), lambda g: (
        nk.scatter_rows(g, nk.segment_cells(idx, g.shape[1]), a.shape[0]),))


def block_transpose(a: Tensor) -> Tensor:
    """Transpose every square block of a stack of them: ``a`` is
    [F·size, size], and rows f·size to f·size + size - 1 hold block f. The
    backward is the same block transpose."""
    size = a.shape[1]
    if a.shape[0] % size:
        raise ShapeError(f"block_transpose needs a stack of square blocks, got {a.shape}")

    def flip(x):
        return x.reshape(-1, size, size).transpose(0, 2, 1).reshape(x.shape)

    return _op(flip(a.values), (a,), lambda g: (flip(g),))


def symmetric_adjacency_chain(logits: Tensor) -> Tensor:
    """``numkit.symmetric_adjacency`` as the chain of autograd nodes that
    ``FilterBank.effective_adjacency`` ran: sigmoid, block transpose, add,
    ×0.5 and the off-diagonal mask."""
    size = logits.shape[1]
    squashed = sigmoid(logits)
    sym = (squashed + block_transpose(squashed)) * Tensor(np.full((1, 1), 0.5))
    return sym * Tensor(np.tile(np.ones((size, size)) - np.eye(size),
                                (logits.shape[0] // size, 1)))


def negative_entropy_chain(r: Tensor, seg: np.ndarray, num_segments: int, eps: float,
                           norm_scope: str = "global", row_local: bool = False):
    """``numkit.negative_entropy`` as the chain of autograd nodes that
    negative-entropy aggregation ran: (z, contribution values)."""
    clamped = clip_min(r, eps)
    col_sums = segment_sum_rows(clamped * clamped, seg, num_segments)
    if norm_scope == "per_column":
        norm = sqrt(col_sums)
    elif row_local:
        norm = sqrt(tsum(col_sums, axis=1))
    else:
        norm = sqrt(col_sums @ Tensor(np.ones((r.shape[1], 1))))
    q = clamped / gather_rows(norm, seg)
    contrib = q * log(q)
    return segment_sum_rows(contrib, seg, num_segments), contrib.values.copy()


def batch_norm_chain(z: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """``numkit.batch_norm`` as the chain of autograd nodes that the
    predictor's training-mode batch norm ran: (output, batch mean, batch
    variance)."""
    inv = Tensor(np.full((1, 1), 1.0 / z.shape[0]))
    mean = tsum(z, axis=0) * inv
    centered = z - mean
    var = tsum(centered * centered, axis=0) * inv
    normed = centered / sqrt(var + Tensor(np.full((1, 1), eps)))
    return normed * gamma + beta, mean.values, var.values


def adam_per_tensor(params: list[Tensor], moments: list, step: int, lr: float,
                    weight_decay: float, beta1: float = 0.9, beta2: float = 0.999,
                    eps: float = 1e-8) -> None:
    """Adam update number ``step`` tensor by tensor, as ``numkit.adam_step``
    looped before it took one flat buffer: ``moments`` holds an (m, v) pair
    of arrays per parameter and is updated with the values."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for i, p in enumerate(params):
        m, v = moments[i]
        g = p.grad + weight_decay * p.values
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        moments[i] = (m, v)
        p.values = p.values - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.grad = None


def finite_difference_check(f, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` re-evaluates the scalar objective from the current parameter values.
    """
    zero_grad(*params)
    out = f()
    if not np.isfinite(out.values).all():
        raise NumericError("objective is non-finite")
    backward(out)
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, g_ad in zip(params, analytic):
        base = p.values
        flat = base.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = f().item()
            flat[i] = keep - eps
            f_minus = f().item()
            flat[i] = keep
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(g_ad.reshape(-1)[i] - g_fd) / (abs(g_fd) + 1e-8)
            worst = max(worst, rel)
    return worst


def neighbourhood_walks_loop(g: Graph, k: int, max_size: int, steps: int) -> list:
    """Per node of ``g``, in node order: the positions in ``g`` of the nodes
    of its ``k_hop_neighborhood`` (anchor first), their induced adjacency A_v
    and the anchor walks ``A_v^p e_anchor`` for p = 0..steps, one neighbourhood
    and one matrix-vector product at a time. The reference that
    ``kernel.build_subgraph_stack``, ``kernel.combine_stacks`` and
    ``kernel.anchor_walks`` must equal."""
    position = {int(v): i for i, v in enumerate(g.node_ids)}
    out = []
    for pos in range(g.n):
        nb = k_hop_neighborhood(g, int(g.node_ids[pos]), k, max_size)
        walk = np.zeros(nb.n)
        walk[0] = 1.0
        walks = [walk]
        for _ in range(steps):
            walk = nb.adjacency @ walk
            walks.append(walk)
        out.append(([position[int(v)] for v in nb.node_ids], nb.adjacency, np.array(walks)))
    return out


def _group_weighted_sum(a: Tensor, weights: np.ndarray) -> Tensor:
    """Row v is ``sum_j weights[v, j] * a[v * width + j]``: the rows of ``a``
    in consecutive groups of ``width``, each summed under its row of the
    constant (n, width) ``weights``."""
    n, width = weights.shape
    groups = a.values.reshape(n, width, a.shape[1])
    return _op(np.einsum("vj,vjc->vc", weights, groups), (a,),
               lambda g: ((weights[:, :, None] * g[:, None, :]).reshape(a.shape),))


def _vstack(parts: list[Tensor]) -> Tensor:
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])
    return _op(np.vstack([p.values for p in parts]), tuple(parts),
               lambda g: tuple(g[lo:hi] for lo, hi in zip(bounds, bounds[1:])))


def _hstack(parts: list[Tensor]) -> Tensor:
    bounds = np.cumsum([0] + [p.shape[1] for p in parts])
    return _op(np.hstack([p.values for p in parts]), tuple(parts),
               lambda g: tuple(g[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])))


def _block_diag(parts: list[Tensor]) -> Tensor:
    """Block-diagonal matrix of ``parts``, zeros elsewhere."""
    rows = np.cumsum([0] + [p.shape[0] for p in parts])
    cols = np.cumsum([0] + [p.shape[1] for p in parts])
    values = np.zeros((rows[-1], cols[-1]))
    for i, p in enumerate(parts):
        values[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = p.values
    return _op(values, tuple(parts), lambda g: tuple(
        g[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] for i in range(len(parts))))


def _block(a: Tensor, rows: slice, cols: slice) -> Tensor:
    """The sub-matrix ``a[rows, cols]``; its gradient is zero elsewhere."""
    def backward(g):
        out = np.zeros(a.shape)
        out[rows, cols] = g
        return (out,)

    return _op(a.values[rows, cols], (a,), backward)


def _filter_slices(stacked: int, size: int) -> list[slice]:
    return [slice(lo, lo + size) for lo in range(0, stacked, size)]


class GraphFilter:
    """One trainable filter as its own pair of leaves: adjacency logits
    squashed through a sigmoid (symmetrized, zero diagonal) and an embedding
    row per node. ``effective_adjacency`` is the per-filter parameter chain
    that ``kernel.FilterBank`` runs for every filter at once."""

    def __init__(self, adjacency_logits: Tensor, features: Tensor):
        self.adjacency_logits = adjacency_logits
        self.features = features

    @staticmethod
    def init(size: int, embed_dim: int, rng) -> "GraphFilter":
        logits = rng.normal(size=(size, size))
        feats = rng.normal(size=(size, embed_dim))
        return GraphFilter(Tensor(logits, requires_grad=True),
                           Tensor(feats, requires_grad=True))

    @property
    def size(self) -> int:
        return self.features.shape[0]

    def effective_adjacency(self) -> Tensor:
        squashed = sigmoid(self.adjacency_logits)
        sym = (squashed + transpose(squashed)) * Tensor(np.full((1, 1), 0.5))
        mask = np.ones((self.size, self.size)) - np.eye(self.size)
        return sym * Tensor(mask)

    def adjacency_values(self) -> np.ndarray:
        return self.effective_adjacency().values

    def parameters(self) -> list[Tensor]:
        return [self.adjacency_logits, self.features]


def bank_of(filters: list[GraphFilter]) -> FilterBank:
    """A filter bank with new leaves holding the values of ``filters``."""
    return FilterBank(
        Tensor(np.vstack([f.adjacency_logits.values for f in filters]), requires_grad=True),
        Tensor(np.vstack([f.features.values for f in filters]), requires_grad=True))


def _horner_chain(s: Tensor, members: np.ndarray, walks: np.ndarray, times) -> Tensor:
    """``sum_p Y_p W^p`` by Horner's rule as a chain of autograd nodes: one
    gather of the member rows of ``s``, then per walk step p a group-weighted
    sum and ``y + times(h)``, ``times`` applying W."""
    gathered = gather_rows(s, members.reshape(-1))
    h = None
    for p in range(walks.shape[0] - 1, -1, -1):
        y = s if p == 0 else _group_weighted_sum(gathered, walks[p])
        h = y if h is None else y + times(h)
    return h


def walk_horner_per_step(s: Tensor, w: Tensor, members: np.ndarray,
                         walks: np.ndarray) -> Tensor:
    """``walk_horner`` as a chain of autograd nodes, with H W taken
    filter by filter: each column block of H times its block of the stacked
    ``w``. The op must equal its values bit for bit and its gradients to
    rounding."""
    size = w.shape[1]
    blocks = [(cols, _block(w, cols, slice(None)))
              for cols in _filter_slices(w.shape[0], size)]
    return _horner_chain(s, members, walks, lambda h: _hstack(
        [_block(h, slice(None), cols) @ block for cols, block in blocks]))


def group_col_sums(a: Tensor, size: int) -> Tensor:
    """Sum each run of ``size`` consecutive columns into one column."""
    n, cols = a.shape
    if cols % size:
        raise ShapeError(f"group_col_sums: {cols} columns do not split into runs of {size}")
    return _op(a.values.reshape(n, cols // size, size).sum(axis=2), (a,),
               lambda g: (np.repeat(g, size, axis=1),))


def walk_horner(s: Tensor, w: Tensor, members: np.ndarray, walks: np.ndarray) -> Tensor:
    """Row v of the output is ``sum_p Y_p[v] W^p``, with
    ``Y_p[v] = sum_j walks[p, v, j] * s[members[v, j]]`` for p >= 1 and
    ``Y_0 = s`` (step 0 of an anchor walk table is the anchor itself), by
    Horner's rule: ``H_P = Y_P``, ``H_p = Y_p + H_{p+1} W``. W is block
    diagonal; ``w`` stacks its square blocks ([F·size, size]), so each
    product is one ``np.matmul`` over the [F, n, size] column blocks.

    One node for the whole walk sum. Its backward runs the recurrence in
    reverse per block, dH_{p+1} = dH_p W_f^T and dW_f += H_{p+1}^T dH_p, and
    sends every dY_p (p >= 1) to the gathered rows of ``s`` in one bincount."""
    n, width = members.shape
    size = w.shape[1]
    steps = walks.shape[0] - 1
    if s.shape[0] != n or w.shape[0] != s.shape[1] or w.shape[0] % size \
            or walks.shape[1:] != (n, width):
        raise ShapeError(f"walk_horner: s {s.shape}, w {w.shape}, members {members.shape}, "
                         f"walks {walks.shape} do not fit")
    cols = s.shape[1]
    blocks = w.values.reshape(-1, size, size)

    def by_block(a):
        # (n, F·size) as a view of shape [F, n, size]
        return a.reshape(n, -1, size).transpose(1, 0, 2)

    gathered = s.values[members]
    horner = [None] * (steps + 1)
    h = None
    for p in range(steps, -1, -1):
        y = by_block(s.values if p == 0 else np.einsum("vj,vjc->vc", walks[p], gathered))
        if h is None:
            h = y
        else:
            h = np.matmul(h, blocks)
            h += y
        horner[p] = h

    def backward(g):
        dy = np.empty((steps + 1, n, blocks.shape[0], size))
        dw = np.zeros(blocks.shape)
        dh = by_block(g)
        # matmul runs twice as fast on a contiguous W^T as on the view
        blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
        for p in range(steps + 1):
            dy[p] = dh.transpose(1, 0, 2)
            if p < steps:
                dw += np.matmul(horner[p + 1].transpose(0, 2, 1), dh)
                dh = np.matmul(dh, blocks_t)
        dy = dy.reshape(steps + 1, n, cols)
        # (n, width, cols): sum over p >= 1 of walks[p, v, j] * dY_p[v]
        spread = np.matmul(walks[1:].transpose(1, 2, 0), dy[1:].transpose(1, 0, 2))
        targets = (members[:, :, None] * cols + np.arange(cols)).reshape(-1)
        ds = np.bincount(targets, weights=spread.reshape(-1), minlength=n * cols)
        return dy[0] + ds.reshape(n, cols), dw.reshape(w.shape)

    return _op(h.transpose(1, 0, 2).reshape(n, cols), (s, w), backward)


def walk_horner_responses(raw: np.ndarray, members: np.ndarray, walks: np.ndarray,
                          bank: FilterBank, encoder) -> Tensor:
    """The kernel responses of node rows with any raw feature rows ``raw``,
    their neighbourhoods' ``members`` and walk table ``walks``: s = encode(raw)
    times the bank's normalized rows, h = ``walk_horner`` of s, then s * h
    summed over each filter's columns."""
    s = encode(encoder, raw) @ transpose(row_unit_normalize(bank.features))
    h = walk_horner(s, effective_adjacency(bank), members, walks)
    return group_col_sums(s * h, bank.size)


def _rank_one_column(r: Tensor, shared: Tensor, w: Tensor,
                     counts: np.ndarray, cap: int) -> Tensor:
    """One filter's rank-one response column: s = r @ shared^T, the scalars
    s^T W^p s from repeated matrix-vector products, times the walk counts."""
    s = r @ transpose(shared)
    vec = s
    coeffs = [transpose(s) @ vec]
    for _ in range(cap):
        vec = matmul(w, vec)
        coeffs.append(transpose(s) @ vec)
    return Tensor(counts[:, :cap + 1]) @ _vstack(coeffs)


def rank_one_walks_chain(rows: Tensor, shared: Tensor, adjacencies: Tensor,
                         counts: np.ndarray, cap: int) -> Tensor:
    """``class_walks`` at K = 1 (``shared`` one row, ``counts`` the
    one class's table) as a chain of autograd nodes, one filter at a time,
    each reading its block of the stacked ``rows`` and ``adjacencies``. At
    cap 0 the chain never uses W and leaves it no gradient."""
    return _hstack([_rank_one_column(_block(rows, f, slice(None)), shared,
                                     _block(adjacencies, f, slice(None)), counts, cap)
                    for f in _filter_slices(rows.shape[0], adjacencies.shape[1])])


def stack_responses_per_filter(stack, filters: list[GraphFilter], encoder,
                               walk_cap: int | None = None) -> Tensor:
    """``kernel.stack_responses`` filter by filter: each filter's own
    parameter chain and normalized rows. Constant features take the rank-one
    chain of each filter; other features take one per-step walk chain over
    the dense block-diagonal W, and a 0/1 owner product sums each filter's
    columns."""
    cap = filters[0].size if walk_cap is None else walk_cap
    walks = anchor_walks(stack.blocks, cap)
    rows = [row_unit_normalize(f.features) for f in filters]
    adjacencies = [f.effective_adjacency() for f in filters]
    raw = stack.raw_features
    if raw.shape[0] and np.all(raw == raw[0]):
        counts = np.ascontiguousarray(walks.sum(axis=2).T)
        shared = encode(encoder, raw[:1])
        return _hstack([_rank_one_column(r, shared, w, counts, cap)
                        for r, w in zip(rows, adjacencies)])
    s = encode(encoder, raw) @ transpose(_vstack(rows))
    w = _block_diag(adjacencies)
    h = _horner_chain(s, stack.members, walks, lambda h: h @ w)
    owner = np.repeat(np.arange(len(filters)), [f.size for f in filters])
    return (s * h) @ Tensor((owner[:, None] == np.arange(len(filters))).astype(np.float64))


def walk_inputs_per_batch(stacks, cap: int):
    """The graph side of one training batch as ``model.train`` built it for
    every batch of every epoch before ``kernel.SplitWalks``: ``combine_stacks``
    of the batch's per-graph ``stacks``, a walk table of its own, and the
    class table summed from it by one ``np.bincount`` over (row, member
    class, step) cells. Returns (class table, classes, raw rows, graph index
    of each row); the reference that ``SplitWalks.batch`` and
    ``kernel.walk_inputs`` must equal byte for byte."""
    stack, graph_seg = combine_stacks(stacks)
    walks = anchor_walks(stack.blocks, cap)
    raw = stack.raw_features
    n, k = raw.shape
    classes = np.argmax(raw, axis=1)
    cells = (np.arange(n)[:, None] * k + classes[stack.members])[:, :, None] * (cap + 1) \
        + np.arange(cap + 1)
    table = np.bincount(cells.reshape(-1), weights=walks.transpose(1, 2, 0).reshape(-1),
                        minlength=n * k * (cap + 1)).reshape(n, k, cap + 1)
    return table, classes, raw, graph_seg


def segment_col_max_loop(values: np.ndarray, seg: np.ndarray, num_segments: int,
                         upstream: np.ndarray):
    """``numkit.segment_col_max`` and max aggregation by their loops: the
    per-segment column maxima, the first row attaining each, the gradient
    that ``upstream`` sends to those rows, added in (segment, column) order,
    and the contribution matrix that holds each maximum at its row."""
    n, m = values.shape
    maxima = np.full((num_segments, m), -np.inf)
    argrow = np.zeros((num_segments, m), dtype=np.int64)
    for r in range(n):
        better = values[r] > maxima[seg[r]]
        argrow[seg[r]][better] = r
        maxima[seg[r]][better] = values[r][better]
    grad = np.zeros_like(values)
    contributions = np.zeros_like(values)
    for s in range(num_segments):
        for c in range(m):
            grad[argrow[s, c], c] += upstream[s, c]
            contributions[argrow[s, c], c] = maxima[s, c]
    return maxima, argrow, grad, contributions


def perturb_edges_loop(g: Graph, delta_add: float, delta_remove: float, rng,
                       protected=None) -> Graph:
    """``graphs.perturb_edges`` one position pair at a time, over the same
    single ``rng.random((n, n))`` draw."""
    prot = set()
    if protected:
        prot = {(min(a, b), max(a, b)) for a, b in protected}
    adj = np.array(g.adjacency)
    draws = rng.random((g.n, g.n))
    for i in range(g.n):
        for j in range(i + 1, g.n):
            pair = (min(int(g.node_ids[i]), int(g.node_ids[j])),
                    max(int(g.node_ids[i]), int(g.node_ids[j])))
            if adj[i, j] != 0.0:
                if pair not in prot and draws[i, j] < delta_remove:
                    adj[i, j] = adj[j, i] = 0.0
            else:
                if draws[i, j] < delta_add:
                    adj[i, j] = adj[j, i] = 1.0
    return Graph(adj, g.features, g.node_ids, label=g.label, anchor=g.anchor)


def threshold_selection_loop(g: Graph, importance: np.ndarray, p: float) -> tuple:
    """The node ids ``explainer.threshold_explanation`` selects, by the
    running-sum loop: exclude the lowest-importance nodes while their sum
    stays <= p, keep the boundary's tie group, never select nothing."""
    importance = np.asarray(importance, dtype=np.float64).reshape(-1)
    order = sorted(range(g.n), key=lambda pos: (importance[pos], pos))
    prefix_len = 0
    cumulative = 0.0
    for pos in order:
        if cumulative + importance[pos] <= p + 1e-12:
            cumulative += importance[pos]
            prefix_len += 1
        else:
            break
    excluded = order[:prefix_len]
    if 0 < prefix_len < g.n:
        boundary = importance[order[prefix_len]]
        excluded = [pos for pos in excluded if importance[pos] < boundary - 1e-12]
    selected_pos = sorted(set(range(g.n)) - set(excluded))
    if not selected_pos:
        selected_pos = [int(np.argmax(importance))]
    return tuple(sorted(int(g.node_ids[pos]) for pos in selected_pos))


def write_tu_dataset(ds, directory: str, name: str) -> None:
    """Write ``ds`` in the TU flat-file layout, the counterpart of
    ``data.parse_tu_dataset``. Feature rows must be one-hot; the index of
    each row's one becomes the node label in ``<name>_node_labels.txt``."""
    os.makedirs(directory, exist_ok=True)

    def p(suffix):
        return os.path.join(directory, f"{name}_{suffix}.txt")

    offset = 1
    a_lines, ind_lines, lab_lines, node_lines = [], [], [], []
    for gi, g in enumerate(ds.graphs):
        if not (np.all((g.features == 0) | (g.features == 1))
                and np.all(g.features.sum(axis=1) == 1)):
            raise ValueError(f"graph {gi} has feature rows that are not one-hot")
        for _ in range(g.n):
            ind_lines.append(str(gi + 1))
        node_lines.extend(str(int(label)) for label in np.argmax(g.features, axis=1))
        rows, cols = np.nonzero(g.adjacency)
        for i, j in zip(rows, cols):
            a_lines.append(f"{offset + i}, {offset + j}")
        lab_lines.append(str(g.label))
        offset += g.n
    for suffix, lines in (("A", a_lines), ("graph_indicator", ind_lines),
                          ("graph_labels", lab_lines), ("node_labels", node_lines)):
        with open(p(suffix), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def draw_samples_loop(g: Graph, explanation, mode: str, cfg, rng):
    """The I1/I2 samples of one graph, id list by id list: the reference for
    ``metrics._draw_samples``."""
    explanation_ids = set(explanation.selected.ids)
    others = [int(i) for i in g.node_ids if int(i) not in explanation_ids]
    samples = []
    skipped = 0
    for _ in range(cfg.samples_per_graph):
        chosen = None
        for _ in range(cfg.max_retries):
            include = rng.random(len(others)) < cfg.inclusion_probability
            picked = [v for v, keep in zip(others, include) if keep]
            candidate = sorted(explanation_ids) + picked if mode == "I1" else picked
            if candidate:
                chosen = sorted(candidate)
                break
        if chosen is None:
            skipped += 1
        else:
            samples.append(induced_subgraph(g, NodeSet(tuple(chosen))))
    return samples, skipped


def perturb_features_loop(g: Graph, delta: float, pool: np.ndarray, rng, exclude=None):
    """``graphs.perturb_features`` node by node."""
    excluded = set(exclude.ids) if exclude is not None else set()
    hit = rng.random(g.n) < delta
    feats = np.array(g.features)
    for pos in range(g.n):
        if hit[pos] and int(g.node_ids[pos]) not in excluded:
            feats[pos] = pool[int(rng.integers(0, pool.shape[0]))]
    return g.with_features(feats)


def sufficiency_necessity_sequential(model, ds, explanations, mode, cfg, rng):
    """I1/I2 with one graph per ``forward_batch`` call, each sample scored
    alone."""
    values = []
    skipped = 0
    for gi, g in enumerate(ds.graphs):
        predicted = forward_batch(model, [g]).predicted[0]
        samples, n_skipped = draw_samples_loop(g, explanations[gi], mode, cfg,
                                               rng.derive(mode, gi))
        skipped += n_skipped
        hits = []
        for sub in samples:
            sub_predicted = forward_batch(model, [sub]).predicted[0]
            hits.append(float(sub_predicted == predicted) if mode == "I1"
                        else float(sub_predicted != predicted))
        if hits:
            values.append(float(np.mean(hits)))
    return _result(mode, values, n_skipped=skipped,
                   intended=len(ds.graphs) * cfg.samples_per_graph)


def robustness_sequential(model, ds, explanations, mode, cfg, rng, feature_pool=None):
    """I3/I4 with every retry of one graph finished before the next graph
    starts, one graph per ``forward_batch`` call."""
    pool = ds.feature_pool() if feature_pool is None else feature_pool
    delta_add = cfg.resolve_edge_add(ds)
    values = []
    skipped = 0
    for gi, g in enumerate(ds.graphs):
        g_rng = rng.derive(mode, gi)
        predicted = forward_batch(model, [g]).predicted[0]
        expl = explanations[gi]
        accepted = None
        for _ in range(cfg.max_retries):
            if mode == "I3":
                perturbed = perturb_features(g, cfg.delta_feature_robustness, pool,
                                             g_rng, exclude=expl.selected)
            else:
                perturbed = perturb_edges(g, delta_add, cfg.delta_edge_remove, g_rng,
                                          protected=_explanation_edges(g, expl.selected))
            if forward_batch(model, [perturbed]).predicted[0] == predicted:
                accepted = perturbed
                break
        if accepted is None:
            skipped += 1
            continue
        new_expl = threshold_explanation(accepted, node_importance(model, accepted),
                                         expl.threshold)
        values.append(iou_nodes(new_expl.selected, expl.selected))
    return _result(mode, values, n_skipped=skipped, intended=len(ds.graphs))


def correctness_sequential(model, ds, explanations, mode, cfg, rng, feature_pool=None):
    """M1/M2 with one ``node_importance`` call per graph."""
    if mode == "M1":
        pool = ds.feature_pool() if feature_pool is None else feature_pool
        perturbed_model = perturb_filters(model, "features", cfg.delta_filter_features,
                                          rng, feature_pool=pool)
    else:
        perturbed_model = perturb_filters(model, "edges", cfg.delta_filter_edges, rng)
    overlaps = []
    for gi, g in enumerate(ds.graphs):
        new_expl = threshold_explanation(g, node_importance(perturbed_model, g),
                                         explanations[gi].threshold)
        overlaps.append(iou_nodes(new_expl.selected, explanations[gi].selected))
    return _result(mode, [1.0 - float(np.mean(overlaps))])


def bfs_hop_distances(adjacency: np.ndarray, start: int) -> dict[int, int]:
    """Plain BFS hop distances from ``start`` over nonzero adjacency entries."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(adjacency.shape[0]):
                if adjacency[u, v] != 0 and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def product_edges_bruteforce(a1: np.ndarray, a2: np.ndarray) -> dict[tuple, float]:
    """All product-graph edges by enumerating every pair combination."""
    n1, n2 = a1.shape[0], a2.shape[0]
    edges = {}
    for v in range(n1):
        for vp in range(n2):
            for u in range(n1):
                for up in range(n2):
                    w = a1[v, u] * a2[vp, up]
                    if w != 0 and (v, vp) < (u, up):
                        edges[((v, vp), (u, up))] = w
    return edges


def walk_kernel_bruteforce(product_adj: np.ndarray, s: np.ndarray, max_len: int,
                           start_rows=None) -> float:
    """Sum over all walks w0..wp (p = 0..max_len) of s[w0] * prod(weights) * s[wp].

    ``start_rows`` restricts w0 (anchored variant); None means all rows.
    """
    n = product_adj.shape[0]
    starts = range(n) if start_rows is None else start_rows
    total = 0.0
    for p in range(max_len + 1):
        for w0 in starts:
            stack = [(w0, 0, 1.0)]
            while stack:
                node, steps, weight = stack.pop()
                if steps == p:
                    total += s[w0] * weight * s[node]
                    continue
                for nxt in range(n):
                    w = product_adj[node, nxt]
                    if w != 0:
                        stack.append((nxt, steps + 1, weight * w))
    return total


def _map_cost(adj1, adj2, edges1, edges2, mismatch, assignment) -> float:
    """Edit cost of transforming graph 1 into graph 2 under a node map.

    ``assignment[u]`` is the image of node u or None (deletion). Unit costs;
    node substitution costs 1 when ``mismatch[u][v]``, i.e. unless the feature
    rows agree within the tolerance.
    """
    mapped2 = {v: u for u, v in enumerate(assignment) if v is not None}
    cost = 0
    for u, v in enumerate(assignment):
        if v is None or mismatch[u][v]:
            cost += 1
    cost += len(adj2) - len(mapped2)
    for i, j in edges1:
        vi, vj = assignment[i], assignment[j]
        if vi is None or vj is None or not adj2[vi][vj]:
            cost += 1
    for x, y in edges2:
        if x in mapped2 and y in mapped2:
            if not adj1[mapped2[x]][mapped2[y]]:
                cost += 1
        else:
            cost += 1
    return float(cost)


def ged_bruteforce(a1, f1, a2, f2, tol=1e-9) -> float:
    """Exhaustive minimum over every injective partial node assignment.

    The boolean adjacencies, edge lists and feature mismatch matrix are
    computed once per call; every assignment is then costed from scratch."""
    n1, n2 = a1.shape[0], a2.shape[0]
    adj1 = (np.asarray(a1) != 0).tolist()
    adj2 = (np.asarray(a2) != 0).tolist()
    edges1 = [(i, j) for i in range(n1) for j in range(i + 1, n1) if adj1[i][j]]
    edges2 = [(x, y) for x in range(n2) for y in range(x + 1, n2) if adj2[x][y]]
    mismatch = [[not np.allclose(f1[u], f2[v], atol=tol, rtol=0.0) for v in range(n2)]
                for u in range(n1)]
    best = math.inf

    def recurse(u, assignment, used):
        nonlocal best
        if u == n1:
            best = min(best, _map_cost(adj1, adj2, edges1, edges2, mismatch, assignment))
            return
        recurse(u + 1, assignment + [None], used)
        for v in range(n2):
            if v not in used:
                recurse(u + 1, assignment + [v], used | {v})

    recurse(0, [], set())
    return best


def shapley_permutation_oracle(value_fn, m: int) -> np.ndarray:
    """Shapley values as the average marginal contribution over all m! orders."""
    phi = np.zeros(m)
    perms = list(itertools.permutations(range(m)))
    for perm in perms:
        members = []
        prev = value_fn(frozenset())
        for player in perm:
            members.append(player)
            cur = value_fn(frozenset(members))
            phi[player] += cur - prev
            prev = cur
    return phi / len(perms)


def spearman_closed_form(x, y) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)) for vectors with distinct entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    rx = np.empty(n)
    rx[np.argsort(x)] = np.arange(1, n + 1)
    ry = np.empty(n)
    ry[np.argsort(y)] = np.arange(1, n + 1)
    d = rx - ry
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def is_isomorphic_bruteforce(a1: np.ndarray, a2: np.ndarray) -> bool:
    """Unlabeled graph isomorphism by permutation search (tiny graphs only)."""
    n = a1.shape[0]
    if a2.shape[0] != n:
        return False
    b1 = (a1 != 0).astype(int)
    b2 = (a2 != 0).astype(int)
    if sorted(b1.sum(axis=0)) != sorted(b2.sum(axis=0)):
        return False
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        if np.array_equal(b1[np.ix_(p, p)], b2):
            return True
    return False


def direct_product(g1: Graph, g2: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Tensor (direct) product graph plus the (v, v') -> product index map.

    Product nodes are ordered pairs; the edge weight between (v, v') and
    (u, u') is ``A1[v, u] * A2[v', u']``, so binary graphs give the classic
    direct product and weighted filters multiply through.
    """
    if g1.n == 0 or g2.n == 0:
        raise EmptySelectionError("direct product requires nonempty graphs")
    adj = np.kron(g1.adjacency, g2.adjacency)
    n = g1.n * g2.n
    index_map = {}
    for i, vid in enumerate(g1.node_ids):
        for j, wid in enumerate(g2.node_ids):
            index_map[(int(vid), int(wid))] = i * g2.n + j
    product = Graph(adj, np.ones((n, 1)), np.arange(n))
    return product, index_map


def filter_as_graph(filt: GraphFilter) -> Graph:
    """Snapshot of a filter's current continuous adjacency as a Graph."""
    return Graph(filt.adjacency_values(), filt.features.values.copy(),
                 np.arange(filt.size))


def node_pair_similarity(gv: Graph, filt, encoder) -> Tensor:
    """Cosine similarities between encoded subgraph nodes and filter nodes."""
    embedded = encode(encoder, gv.features)
    filter_rows = row_unit_normalize(filt.features)
    return embedded @ transpose(filter_rows)


def rw_kernel(g1: Graph, g2: Graph, walk_cap: int, similarity: np.ndarray) -> float:
    """P-step random-walk kernel sum_{p=0..P} s^T A_x^p s with s = vec(S),
    evaluated through the factorized recurrence (A_x itself is never built)."""
    if walk_cap < 0:
        raise ValueError("walk cap must be >= 0")
    s = np.asarray(similarity, dtype=np.float64)
    if s.shape != (g1.n, g2.n):
        raise ValueError(f"similarity shape {s.shape} != ({g1.n}, {g2.n})")
    m = s
    total = float((s * m).sum())
    for _ in range(walk_cap):
        m = g1.adjacency @ m @ g2.adjacency
        total += float((s * m).sum())
    return total


def anchored_rw_kernel(gv: Graph, filt, encoder, walk_cap: int | None = None) -> Tensor:
    """Walk-kernel response of one node-centered subgraph against one filter,
    restricted to walks starting at the anchor; differentiable in the filter
    and encoder parameters. The walk cap defaults to the filter size."""
    if gv.anchor is None:
        raise AnchorError("subgraph has no anchor; build it with k_hop_neighborhood")
    if gv.anchor != 0:
        raise AnchorError("anchor must sit at position 0")
    cap = filt.size if walk_cap is None else walk_cap
    s = node_pair_similarity(gv, filt, encoder)
    w = filt.effective_adjacency()
    a = Tensor(gv.adjacency)
    m = s
    acc = s
    for _ in range(cap):
        m = matmul(a, matmul(m, w))
        acc = acc + m
    anchor_row = gather_rows(s * acc, np.array([0]))
    return tsum(anchor_row)
