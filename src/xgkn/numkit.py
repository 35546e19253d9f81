"""Minimal numerical substrate: 2-D tensors with reverse-mode gradients over a
fixed op vocabulary, an Adam optimizer, and the statistics helpers (softmax,
Spearman, Welch's t-test) the rest of the package relies on.

Everything is float64 and strictly two-dimensional; scalars are (1, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyInputError,
    NumericError,
    OptimizerStateError,
    ShapeError,
    StatisticsError,
)
from .record import Record


class Tensor:
    """A 2-D value in the computation graph.

    ``requires_grad`` marks trainable leaves; op outputs inherit the flag from
    their parents. ``backward`` accumulates into the ``grad`` of leaves only
    (zero it between optimization steps; ``adam_step`` does this for you).
    """

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


def row_matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with every output row computed from its own row of ``a``
    alone, so a row rounds the same alone or inside any batch; BLAS blocks
    the rows of a product by the batch size. The forward is ``np.einsum``;
    the backward is ``matmul``'s."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"row_matmul mismatch: {a.shape} @ {b.shape}")
    return _op(_row_local_product(a.values, b.values), (a, b),
               lambda g: (g @ b.values.T, a.values.T @ g))


def _row_local_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` by ``np.einsum``, each output row from its own row of ``a``."""
    return np.einsum("ij,jk->ik", a, b)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0
    return _op(a.values * mask, (a,), lambda g: (g * mask,))


def symmetric_adjacency(logits: Tensor) -> Tensor:
    """``(sigmoid(x) + sigmoid(x)^T) * 0.5`` with a zero diagonal, for every
    square block of the stack ``logits`` ([F·size, size], rows f·size to
    f·size + size - 1 holding block f), as one node. Forward and backward
    take the steps, and the rounding, of the chain sigmoid, block transpose,
    add, ×0.5 and mask (``tests/oracles.py``)."""
    size = logits.shape[1]
    if logits.shape[0] % size:
        raise ShapeError(f"symmetric_adjacency needs a stack of square blocks, "
                         f"got {logits.shape}")

    def flip(x):
        return x.reshape(-1, size, size).transpose(0, 2, 1).reshape(x.shape)

    half = np.full((1, 1), 0.5)
    mask = np.tile(np.ones((size, size)) - np.eye(size), (logits.shape[0] // size, 1))
    squashed = 1.0 / (1.0 + np.exp(-logits.values))

    def backward(g):
        g_sum = g * mask * half
        g_squashed = g_sum + flip(g_sum)
        return (g_squashed * squashed * (1.0 - squashed),)

    return _op((squashed + flip(squashed)) * half * mask, (logits,), backward)


def _scatter_rows(rows: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """``out[seg[k]] += rows[k]`` for k in order, from zeros: ``np.add.at``'s
    sums in its order, as one ``np.bincount`` over (segment, column) cells."""
    cols = rows.shape[1]
    cells = (seg[:, None] * cols + np.arange(cols)).reshape(-1)
    return np.bincount(cells, weights=rows.reshape(-1),
                       minlength=num_segments * cols).reshape(num_segments, cols)


def segment_sum_rows(a: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows that share a segment id into one output row per segment."""
    seg = np.asarray(seg, dtype=np.int64)
    return _op(_scatter_rows(a.values, seg, num_segments), (a,), lambda g: (g[seg],))


def negative_entropy(r: Tensor, seg: np.ndarray, num_segments: int, eps: float,
                     norm_scope: str = "global", row_local: bool = False
                     ) -> tuple[Tensor, np.ndarray]:
    """Per segment and column, the sum of ``q log q`` over the segment's rows,
    ``q = max(r, eps) / norm`` with ``norm`` the square root of the
    segment's sum of squares: over all its columns (``global``) or per column
    (``per_column``). Returns the (num_segments, cols) sums as one node and
    the ``q log q`` values. The global sum over columns is a product with a
    ones column, or with ``row_local`` a row sum, which rounds the same for
    a segment alone or among any others.

    Forward and backward take the steps, and the rounding, of the chain of
    clip, square, segment sum, norm, gather, divide, log and product
    (``tests/oracles.py``), the clamped rows' gradient summed as that chain's
    backward sums it: the division's part, then the square's two."""
    seg = np.asarray(seg, dtype=np.int64)
    keep = r.values > eps
    clamped = np.maximum(r.values, eps)
    col_sums = _scatter_rows(clamped * clamped, seg, num_segments)
    if norm_scope == "per_column":
        total = col_sums
    elif row_local:
        total = col_sums.sum(axis=1, keepdims=True)
    else:
        total = col_sums @ np.ones((r.shape[1], 1))
    norm = np.sqrt(total)
    gathered = norm[seg]
    q = clamped / gathered
    log_q = np.log(q)
    contributions = q * log_q

    def backward(g):
        g_contrib = g[seg]
        g_q = g_contrib * log_q + g_contrib * q / q
        g_gathered = _unbroadcast(-g_q * clamped / (gathered * gathered), gathered.shape)
        # the global sum's backward, a product with a ones row in the chain,
        # copies each entry exactly, as broadcasting does
        g_total = _scatter_rows(g_gathered, seg, num_segments) * 0.5 / norm
        g_square = g_total[seg] * clamped
        return ((g_q / gathered + g_square + g_square) * keep,)

    return _op(_scatter_rows(contributions, seg, num_segments), (r,), backward), contributions


def batch_norm(z: Tensor, gamma: Tensor, beta: Tensor, eps: float
               ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch normalization as one node: ``(z - mean) /
    sqrt(var + eps) * gamma + beta`` over the batch's rows, and the batch
    mean and (biased) variance. Forward and backward take the steps, and the
    rounding, of the chain of column sums, centring, square, square root,
    division, scale and shift (``tests/oracles.py``), the centred rows'
    gradient summed as that chain's backward sums it: the division's part,
    then the square's two."""
    inv = np.full((1, 1), 1.0 / z.shape[0])
    mean = z.values.sum(axis=0, keepdims=True) * inv
    centered = z.values - mean
    var = (centered * centered).sum(axis=0, keepdims=True) * inv
    std = np.sqrt(var + np.full((1, 1), eps))
    normed = centered / std

    def backward(g):
        g_normed = g * gamma.values
        g_std = _unbroadcast(-g_normed * centered / (std * std), std.shape)
        g_square = g_std * 0.5 / std * inv * centered
        g_centered = g_normed / std + g_square + g_square
        g_mean = _unbroadcast(-g_centered, mean.shape)
        return (g_centered + g_mean * inv,
                _unbroadcast(g * normed, gamma.shape), _unbroadcast(g, beta.shape))

    return _op(normed * gamma.values + beta.values, (z, gamma, beta), backward), mean, var


def segment_col_max(a: Tensor, seg: np.ndarray, num_segments: int) -> tuple[Tensor, np.ndarray]:
    """Per-segment, per-column max. Returns the (num_segments, cols) tensor and
    the row index attaining each max (first row on ties); gradients route to
    those rows only."""
    seg = np.asarray(seg, dtype=np.int64)
    n, m = a.shape
    values = np.full((num_segments, m), -np.inf)
    argrow = np.zeros((num_segments, m), dtype=np.int64)
    counts = np.bincount(seg, minlength=num_segments)
    filled = np.nonzero(counts)[0]
    if filled.size:
        # rows grouped by segment, in row order within each; a NaN never
        # wins, and a segment whose maximum is -inf keeps row 0
        order = np.argsort(seg, kind="stable")
        ranked = a.values[order]
        ranked[np.isnan(ranked)] = -np.inf
        starts = (np.cumsum(counts) - counts)[filled]
        top = np.maximum.reduceat(ranked, starts, axis=0)
        hit = (ranked == np.repeat(top, counts[filled], axis=0)) & (ranked > -np.inf)
        first = np.minimum.reduceat(np.where(hit, np.arange(n)[:, None], n), starts, axis=0)
        won = first < n
        rows = np.where(won, order[np.minimum(first, n - 1)], 0)
        argrow[filled] = rows
        # the first attaining row's own value, so the sign of a zero maximum
        # is that row's
        values[filled] = np.where(won, a.values[rows, np.arange(m)], -np.inf)

    def backward(g):
        # adds in the (segment, column) order of the index arrays
        out = np.zeros_like(a.values)
        np.add.at(out, (argrow, np.arange(m)), g)
        return (out,)

    return _op(values, (a,), backward), argrow


def class_products(rows: np.ndarray, shared: np.ndarray, w: np.ndarray, cap: int
                   ) -> tuple[list, np.ndarray]:
    """The filter side of ``class_walks``: the walk vectors ``v_p = W^p s``
    of every filter block (``s = rows_f @ shared^T``, [F, size, K]) for p up
    to ``cap``, one ``np.matmul`` over the blocks each, and the products
    ``c_{f,p}[b, a] = s_{f,b}^T v_p[:, a]`` as class a's (K·(cap + 1), F)
    matrix, row b·(cap + 1) + p. ``w`` is [F, size, size]."""
    size, (k, dim) = w.shape[1], shared.shape
    v = [np.matmul(rows.reshape(-1, size, dim), shared.T)]
    for _ in range(cap):
        v.append(np.matmul(w, v[-1]))
    s_t = v[0].transpose(0, 2, 1)
    c = np.stack([np.matmul(s_t, vp) for vp in v], axis=3)
    return v, np.ascontiguousarray(c.transpose(2, 1, 3, 0)).reshape(k, k * (cap + 1), w.shape[0])


def _class_parts(classes: np.ndarray, k: int) -> list:
    """(class, slice) of each class present, over rows grouped by class."""
    counts = np.bincount(classes, minlength=k)
    ends = np.cumsum(counts)
    return [(a, slice(ends[a] - counts[a], ends[a])) for a in np.flatnonzero(counts)]


def class_table_product(table: np.ndarray, classes: np.ndarray, order: np.ndarray,
                        coef: np.ndarray, row_local: bool = False) -> np.ndarray:
    """The rows of ``class_walks`` from the class products ``coef`` of
    ``class_products``, where ``table`` is grouped by class: its row i is
    the class table of row ``order[i]``, ``order`` the stable class order of
    ``classes``. One product per class present, over that class's rows:
    ``@``, or with ``row_local`` an ``np.einsum`` whose rows round alone as
    in any batch."""
    n = classes.shape[0]
    flat = table.reshape(n, -1)
    out = np.empty((n, coef.shape[2]))
    for a, part in _class_parts(classes, coef.shape[0]):
        out[order[part]] = _row_local_product(flat[part], coef[a]) if row_local \
            else flat[part] @ coef[a]
    return out


def class_walks(rows: Tensor, shared: Tensor, adjacencies: Tensor, table: np.ndarray,
                classes: np.ndarray, cap: int, row_local: bool = False,
                order: np.ndarray | None = None) -> Tensor:
    """Column f of the output is ``sum_{b,p} table[v, b, p] * c_{f,p}[b, a]``
    at row v of class ``a = classes[v]``, over p <= cap, with
    ``c_{f,p}[b, a] = s_{f,b}^T W_f^p s_{f,a}`` and ``s_f = rows_f @
    shared^T``: the walk sum when node v's feature row is row ``classes[v]``
    of the K rows ``shared``. ``table`` is the (n, K, cap + 1) walk weight of
    each class: ``table[v, b, p]`` sums the length-p anchor walks of v that
    end at a node of class b. ``rows`` and ``adjacencies`` stack the filters'
    blocks of ``size`` rows. Constant features are the case K = 1. Given
    ``order``, the stable class order of the rows, ``table`` comes grouped
    by class already, its row i the table of row ``order[i]``.

    The forward is ``class_products`` and ``class_table_product``.
    The backward takes ``table^T g`` per class into dc, then runs back through
    v_p = W v_{p-1} (v_0 = s): dv_p = s dc_p + W^T dv_{p+1},
    dW = sum_p dv_p v_{p-1}^T, ds = dv_0 + sum_p v_p dc_p^T. At cap 0 W gets a
    zero gradient."""
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
    w = adjacencies.values.reshape(-1, size, size)
    v, coef = class_products(rows.values, shared.values, w, cap)
    out = class_table_product(table, classes, order, coef, row_local)

    def backward(g):
        num_filters, steps = w.shape[0], cap + 1
        flat = table.reshape(n, k * steps)
        dcoef = np.zeros(coef.shape)
        g = g[order]
        for a, part in _class_parts(classes, k):
            dcoef[a] = flat[part].T @ g[part]
        # dc[f, b, a, p]
        dc = dcoef.reshape(k, k, steps, num_filters).transpose(3, 1, 0, 2)
        ds = np.zeros(v[0].shape)
        for p in range(steps):
            ds += np.matmul(v[p], dc[..., p].transpose(0, 2, 1))
        dv = np.matmul(v[0], dc[..., cap])
        dw = np.zeros(w.shape)
        w_t = w.transpose(0, 2, 1)
        for p in range(cap, 0, -1):
            dw += np.matmul(dv, v[p - 1].transpose(0, 2, 1))
            dv = np.matmul(v[0], dc[..., p - 1]) + np.matmul(w_t, dv)
        ds += dv
        # ds is [F, size, K]: rows get ds @ shared, shared sums the filters
        drows = np.matmul(ds, shared.values).reshape(rows.shape)
        dshared = ds.transpose(2, 0, 1).reshape(k, -1) @ rows.values
        return drows, dshared, dw.reshape(adjacencies.shape)

    return _op(out, (rows, shared, adjacencies), backward)


def row_unit_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """L2-normalize each row; rows with norm <= eps become zero rows (guard)."""
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    good = norms > eps
    safe = np.where(good, norms, 1.0)
    out_values = np.where(good, a.values / safe, 0.0)

    def backward(g):
        dot = (out_values * g).sum(axis=1, keepdims=True)
        return (np.where(good, (g - out_values * dot) / safe, 0.0),)

    return _op(out_values, (a,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    nll = -(shifted[np.arange(n), labels] - np.log(expv.sum(axis=1)))
    value = nll.mean().reshape(1, 1)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (float(g.reshape(())) / n),)

    return _op(value, (logits,), backward)


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into ``grad`` of every requires_grad leaf
    reachable from ``output``; op outputs keep no ``grad``. Every gradient,
    intermediate ones included, is checked for non-finite entries.
    ``output`` must be scalar."""
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


class AdamState:
    """Adam moments plus hyperparameters over one flat buffer of every
    parameter: ``adam_init`` makes each parameter's ``values`` a view of its
    slice of ``flat``, and ``m`` and ``v`` are laid out as ``flat`` is."""

    def __init__(self, lr: float = 0.01, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step = 0
        self.flat, self.m, self.v = np.zeros(0), np.zeros(0), np.zeros(0)
        self.views: list = []


def adam_init(params: list[Tensor], lr: float = 0.01, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0) -> AdamState:
    """Adam state for ``params``, whose values move into the state's flat
    buffer: each ``p.values`` becomes a view of it, with the same values."""
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)
    state.flat = np.concatenate([np.zeros(0)] + [p.values.ravel() for p in params])
    state.m = np.zeros_like(state.flat)
    state.v = np.zeros_like(state.flat)
    lo = 0
    for p in params:
        p.values = state.flat[lo:lo + p.values.size].reshape(p.values.shape)
        state.views.append(p.values)
        lo += p.values.size
    return state


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One Adam update (classic L2 weight decay added to the gradient), one
    array operation per step of the rule over the flat buffer; elementwise,
    so each entry rounds as in a loop over the tensors.

    Parameters are updated in place and their grads are zeroed.
    """
    if len(state.views) != len(params) \
            or any(p.values is not view for p, view in zip(params, state.views)):
        raise OptimizerStateError("state does not match the parameter list; run adam_init "
                                  "again after replacing parameter values")
    for p in params:
        if p.grad is None:
            raise OptimizerStateError("parameter has no gradient; run backward first")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    g = np.concatenate([np.zeros(0)] + [p.grad.ravel() for p in params]) \
        + state.weight_decay * state.flat
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    state.flat -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    for p in params:
        p.grad = None


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax of a 1-D vector."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise EmptyInputError("softmax of an empty vector")
    e = np.exp(v - v.max())
    return e / e.sum()


def _rank_average_ties(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    n = len(x)
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_abs(x, y) -> float:
    """Absolute Spearman rank correlation with average-rank tie handling.

    Returns 0.0 when either vector is constant (correlation undefined).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ShapeError("need at least 2 observations")
    rx = _rank_average_ties(x)
    ry = _rank_average_ties(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return abs(float(dx @ dy) / math.sqrt(sx * sy))


class TTestResult(Record):
    t: float
    df: float
    p_value: float
    significant: bool
    alpha: float


def welch_ttest(a, b, alpha: float = 0.05) -> TTestResult:
    """Two-sided Welch's t-test with Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise StatisticsError("each sample needs at least 2 observations")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        raise StatisticsError("both samples have zero variance")
    sa, sb = va / a.size, vb / b.size
    t = (float(a.mean()) - float(b.mean())) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa * sa / (a.size - 1) + sb * sb / (b.size - 1))
    # imported here, not at module level: scipy.special would add about 0.1 s
    # and 4 MB to the start-up of every CLI stage, and only --compare needs it
    from scipy.special import stdtr
    p = float(2.0 * stdtr(df, -abs(t)))
    return TTestResult(t=t, df=df, p_value=p, significant=p < alpha, alpha=alpha)
