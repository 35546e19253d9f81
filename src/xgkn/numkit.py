"""Minimal numerical substrate: the ops of a training step over NumPy
arrays, the reverse pass that runs their backward closures, an Adam
optimizer over one flat buffer, and the statistics helpers (softmax,
Spearman, Welch's t-test) the rest of the package relies on.

Every array is float64 and two-dimensional; scalars are (1, 1). An op
returns its output, then any values it computes on the way, then its
backward: a closure from the gradient of the output to the tuple of
gradients of its array inputs. ``backward`` runs the closures of a
straight-line program of ops in reverse order (reverse mode on a fixed
program needs no tape: Griewank & Walther, "Evaluating Derivatives", 2nd
ed., SIAM 2008); ``tests/oracles.py`` keeps the general tape the gradient
tests run these ops through.
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


def _column_sums(g: np.ndarray) -> np.ndarray:
    """The gradient of a row broadcast over the rows of ``g``: their column
    sums, or ``g`` itself when it has one row, as broadcasting's backward
    takes it (a sum of one entry would turn -0.0 into 0.0)."""
    return g if g.shape[0] == 1 else g.sum(axis=0, keepdims=True)


def matmul(a: np.ndarray, b: np.ndarray):
    return a @ b, lambda g: (g @ b.T, a.T @ g)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """``x @ w + b``, ``b`` one row added to every row."""
    return x @ w + b, lambda g: (g @ w.T, x.T @ g, _column_sums(g))


def row_local_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` by ``np.einsum``, every output row computed from its own row
    of ``a`` alone, so a row rounds the same alone or inside any batch; BLAS
    blocks the rows of a product by the batch size."""
    return np.einsum("ij,jk->ik", a, b)


def relu(a: np.ndarray):
    mask = a > 0.0
    return a * mask, lambda g: (g * mask,)


def off_diagonal_mask(num_blocks: int, size: int) -> np.ndarray:
    """``num_blocks`` stacked ``size`` x ``size`` blocks of ones with a zero
    diagonal, the mask of ``symmetric_adjacency``."""
    return np.tile(np.ones((size, size)) - np.eye(size), (num_blocks, 1))


def symmetric_adjacency(logits: np.ndarray, mask: np.ndarray):
    """``(sigmoid(x) + sigmoid(x)^T) * 0.5`` times ``mask``, the
    ``off_diagonal_mask`` of the stack, for every square block of the stack
    ``logits`` ([F·size, size], rows f·size to f·size + size - 1 holding
    block f). Forward and backward take the steps, and the rounding, of the
    chain sigmoid, block transpose, add, ×0.5 and mask
    (``tests/oracles.py``)."""
    size = logits.shape[1]
    if logits.shape[0] % size or mask.shape != logits.shape:
        raise ShapeError(f"symmetric_adjacency needs a stack of square blocks and its mask, "
                         f"got {logits.shape} and {mask.shape}")

    def flip(x):
        return x.reshape(-1, size, size).transpose(0, 2, 1).reshape(x.shape)

    half = np.full((1, 1), 0.5)
    squashed = 1.0 / (1.0 + np.exp(-logits))

    def backward(g):
        g_sum = g * mask * half
        g_squashed = g_sum + flip(g_sum)
        return (g_squashed * squashed * (1.0 - squashed),)

    return (squashed + flip(squashed)) * half * mask, backward


def segment_cells(seg: np.ndarray, cols: int) -> np.ndarray:
    """The (segment, column) cell of every entry of rows of ``cols`` columns
    whose segments are ``seg``, in row-major order: ``scatter_rows``' index."""
    return (seg[:, None] * cols + np.arange(cols)).reshape(-1)


def scatter_rows(rows: np.ndarray, cells: np.ndarray, num_segments: int) -> np.ndarray:
    """``out[seg[k]] += rows[k]`` for k in order, from zeros, where ``cells``
    is ``segment_cells(seg, cols)``: ``np.add.at``'s sums in its order, as one
    ``np.bincount``."""
    cols = rows.shape[1]
    return np.bincount(cells, weights=rows.reshape(-1),
                       minlength=num_segments * cols).reshape(num_segments, cols)


def segment_sum_rows(a: np.ndarray, seg: np.ndarray, num_segments: int):
    """Sum rows that share a segment id into one output row per segment."""
    seg = np.asarray(seg, dtype=np.int64)
    return (scatter_rows(a, segment_cells(seg, a.shape[1]), num_segments),
            lambda g: (g[seg],))


def negative_entropy(r: np.ndarray, seg: np.ndarray, num_segments: int, eps: float,
                     norm_scope: str = "global", row_local: bool = False):
    """Per segment and column, the sum of ``q log q`` over the segment's rows,
    ``q = max(r, eps) / norm`` with ``norm`` the square root of the
    segment's sum of squares: over all its columns (``global``) or per column
    (``per_column``). Returns the (num_segments, cols) sums, the ``q log q``
    values and the backward. The global sum over columns is a product with a
    ones column, or with ``row_local`` a row sum, which rounds the same for
    a segment alone or among any others.

    Forward and backward take the steps, and the rounding, of the chain of
    clip, square, segment sum, norm, gather, divide, log and product
    (``tests/oracles.py``), the clamped rows' gradient summed as that chain's
    backward sums it: the division's part, then the square's two. The
    segment cells are built once for the forward's two sums and the
    backward's one."""
    seg = np.asarray(seg, dtype=np.int64)
    cells = segment_cells(seg, r.shape[1])
    keep = r > eps
    clamped = np.maximum(r, eps)
    col_sums = scatter_rows(clamped * clamped, cells, num_segments)
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
        g_gathered = -g_q * clamped / (gathered * gathered)
        if g_gathered.shape[1] > gathered.shape[1]:
            # the global norm's column, broadcast over the segment's columns
            g_gathered = g_gathered.sum(axis=1, keepdims=True)
        # the global sum's backward, a product with a ones row in the chain,
        # copies each entry exactly, as broadcasting does
        g_total = scatter_rows(g_gathered, cells if norm_scope == "per_column" else seg,
                               num_segments) * 0.5 / norm
        g_square = g_total[seg] * clamped
        return ((g_q / gathered + g_square + g_square) * keep,)

    return scatter_rows(contributions, cells, num_segments), contributions, backward


def batch_norm(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Training-mode batch normalization: ``(z - mean) / sqrt(var + eps) *
    gamma + beta`` over the batch's rows, the batch mean and (biased)
    variance, and the backward. Forward and backward take the steps, and the
    rounding, of the chain of column sums, centring, square, square root,
    division, scale and shift (``tests/oracles.py``), the centred rows'
    gradient summed as that chain's backward sums it: the division's part,
    then the square's two."""
    inv = np.full((1, 1), 1.0 / z.shape[0])
    mean = z.sum(axis=0, keepdims=True) * inv
    centered = z - mean
    var = (centered * centered).sum(axis=0, keepdims=True) * inv
    std = np.sqrt(var + np.full((1, 1), eps))
    normed = centered / std

    def backward(g):
        g_normed = g * gamma
        g_std = _column_sums(-g_normed * centered / (std * std))
        g_square = g_std * 0.5 / std * inv * centered
        g_centered = g_normed / std + g_square + g_square
        g_mean = _column_sums(-g_centered)
        return g_centered + g_mean * inv, _column_sums(g * normed), _column_sums(g)

    return normed * gamma + beta, mean, var, backward


def segment_col_max(a: np.ndarray, seg: np.ndarray, num_segments: int):
    """Per-segment, per-column max. Returns the (num_segments, cols) maxima,
    the row index attaining each max (first row on ties) and the backward,
    which routes gradients to those rows only."""
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
        ranked = a[order]
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
        values[filled] = np.where(won, a[rows, np.arange(m)], -np.inf)

    def backward(g):
        # adds in the (segment, column) order of the index arrays
        out = np.zeros_like(a)
        np.add.at(out, (argrow, np.arange(m)), g)
        return (out,)

    return values, argrow, backward


def class_products(rows: np.ndarray, shared: np.ndarray, adjacencies: np.ndarray, cap: int):
    """The filter side of the class walks: with ``s_f = rows_f @ shared^T``
    ([F, size, K]) and the walk vectors ``v_p = W_f^p s_f`` for p up to
    ``cap``, one ``np.matmul`` over the blocks each, the products
    ``c_{f,p}[b, a] = s_{f,b}^T v_p[:, a]``, as class a's (K·(cap + 1), F)
    matrix, row b·(cap + 1) + p; and the backward. ``rows`` and
    ``adjacencies`` stack the F filters' blocks of ``size`` rows; ``shared``
    holds the K encoded class rows.

    The backward runs back through v_p = W v_{p-1} (v_0 = s):
    dv_p = s dc_p + W^T dv_{p+1}, dW = sum_p dv_p v_{p-1}^T,
    ds = dv_0 + sum_p v_p dc_p^T. At cap 0 W gets a zero gradient."""
    size, (k, dim) = adjacencies.shape[1], shared.shape
    if rows.shape != (adjacencies.shape[0], dim) or adjacencies.shape[0] % size:
        raise ShapeError(f"class_products: rows {rows.shape}, shared {shared.shape} and "
                         f"adjacencies {adjacencies.shape} do not fit")
    w = adjacencies.reshape(-1, size, size)
    v = [np.matmul(rows.reshape(-1, size, dim), shared.T)]
    for _ in range(cap):
        v.append(np.matmul(w, v[-1]))
    s_t = v[0].transpose(0, 2, 1)
    c = np.stack([np.matmul(s_t, vp) for vp in v], axis=3)
    coef = np.ascontiguousarray(c.transpose(2, 1, 3, 0)).reshape(k, k * (cap + 1), w.shape[0])

    def backward(dcoef):
        # dc[f, b, a, p]
        dc = dcoef.reshape(k, k, cap + 1, w.shape[0]).transpose(3, 1, 0, 2)
        ds = np.zeros(v[0].shape)
        for p in range(cap + 1):
            ds += np.matmul(v[p], dc[..., p].transpose(0, 2, 1))
        dv = np.matmul(v[0], dc[..., cap])
        dw = np.zeros(w.shape)
        w_t = w.transpose(0, 2, 1)
        for p in range(cap, 0, -1):
            dw += np.matmul(dv, v[p - 1].transpose(0, 2, 1))
            dv = np.matmul(v[0], dc[..., p - 1]) + np.matmul(w_t, dv)
        ds += dv
        # ds is [F, size, K]: rows get ds @ shared, shared sums the filters
        drows = np.matmul(ds, shared).reshape(rows.shape)
        dshared = ds.transpose(2, 0, 1).reshape(k, -1) @ rows
        return drows, dshared, dw.reshape(adjacencies.shape)

    return coef, backward


def class_parts(classes: np.ndarray, k: int) -> list:
    """(class, slice) of each of the ``k`` classes present in ``classes``,
    over their rows grouped by class."""
    counts = np.bincount(classes, minlength=k)
    ends = np.cumsum(counts)
    return [(a, slice(ends[a] - counts[a], ends[a])) for a in np.flatnonzero(counts)]


def class_table_product(table: np.ndarray, parts: list, order: np.ndarray, coef: np.ndarray,
                        row_local: bool = False):
    """The graph side of the class walks: column f of row v is
    ``sum_{b,p} table[v, b, p] * c_{f,p}[b, a]`` for v of class a, with
    ``coef`` the class products of ``class_products``. ``table`` is the
    (n, K, cap + 1) walk weight of each class grouped by class: its row i
    belongs to row ``order[i]``, and ``parts`` is the ``class_parts`` of the
    grouped rows. One product per class present, over that class's rows:
    ``@``, or with ``row_local`` a ``row_local_product``. The backward takes
    ``table^T g`` per class."""
    n, k = table.shape[:2]
    if coef.shape[:2] != (k, table.shape[1] * table.shape[2]):
        raise ShapeError(f"class_table_product: table {table.shape} and class products "
                         f"{coef.shape} do not fit")
    flat = table.reshape(n, -1)
    out = np.empty((n, coef.shape[2]))
    for a, part in parts:
        out[order[part]] = row_local_product(flat[part], coef[a]) if row_local \
            else flat[part] @ coef[a]

    def backward(g):
        dcoef = np.zeros(coef.shape)
        g = g[order]
        for a, part in parts:
            dcoef[a] = flat[part].T @ g[part]
        return (dcoef,)

    return out, backward


def row_unit_normalize(a: np.ndarray, eps: float = 1e-12):
    """L2-normalize each row; rows with norm <= eps become zero rows (guard)."""
    norms = np.sqrt((a * a).sum(axis=1, keepdims=True))
    good = norms > eps
    safe = np.where(good, norms, 1.0)
    out = np.where(good, a / safe, 0.0)

    def backward(g):
        dot = (out * g).sum(axis=1, keepdims=True)
        return (np.where(good, (g - out * dot) / safe, 0.0),)

    return out, backward


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood of integer ``labels`` under row softmax,
    as a (1, 1) array, and the backward."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    nll = -(shifted[np.arange(n), labels] - np.log(expv.sum(axis=1)))

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (float(g.reshape(())) / n),)

    return nll.mean().reshape(1, 1), backward


def backward(steps: list, grad: np.ndarray) -> None:
    """The reverse pass of a straight-line program whose last step has a
    (1, 1) output. ``steps[i]`` pairs step i's backward with the sinks of
    its inputs' gradients, one per input: the index of the earlier step
    whose output the input is, a view of ``grad`` that takes a parameter's
    gradient, or None for an input that needs none. Every output feeds one
    input, and every parameter view is written by one step. The backwards
    run from the last step to the first, each on the gradient its output
    received. Then one check: a non-finite entry of ``grad`` raises
    NumericError."""
    received = [None] * len(steps)
    received[-1] = np.ones((1, 1))
    for i in range(len(steps) - 1, -1, -1):
        back, sinks = steps[i]
        for sink, g in zip(sinks, back(received[i])):
            if type(sink) is int:
                received[sink] = g
            elif sink is not None:
                sink[...] = g
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient encountered")


class AdamState:
    """Adam moments plus hyperparameters over one flat buffer ``flat``
    holding every parameter, in order; ``m`` and ``v`` are laid out as
    ``flat`` is, and so is the gradient ``adam_step`` takes. ``split``
    gives each parameter's view of such a buffer."""

    def __init__(self, params: list[np.ndarray], lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step = 0
        self.shapes = [p.shape for p in params]
        self.flat = np.concatenate([np.zeros(0)] + [p.ravel() for p in params])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def split(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of ``buffer``, laid out as ``flat``."""
        views, lo = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            views.append(buffer[lo:lo + size].reshape(shape))
            lo += size
        return views


def adam_step(state: AdamState, grad: np.ndarray) -> None:
    """One Adam update of ``state.flat`` in place (classic L2 weight decay
    added to the gradient ``grad``, laid out as ``flat``), one array
    operation per step of the rule; elementwise, so each entry rounds as in
    a loop over the parameters."""
    if grad.shape != state.flat.shape:
        raise OptimizerStateError(f"gradient of shape {grad.shape} for a flat buffer of "
                                  f"shape {state.flat.shape}")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    g = grad + state.weight_decay * state.flat
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    state.flat -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


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
