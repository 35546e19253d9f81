"""Instance-level explanations: exact Shapley attribution over the per-filter
scores, propagation back onto input nodes, softmax importance maps,
percentile thresholding and threshold selection.

Shapley values are exact for the predictor's characteristic game
(coordinates outside the coalition are reset to the baseline, the
training-split mean score vector), so the efficiency identity
phi_0 + sum(phi) = predicted logit holds up to rounding. The depth-1
predictor is affine in the scores, so its values have a closed form; the
depth-2 MLP enumerates every coalition.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import Dataset
from .errors import CapacityError, ShapeError
from .graphs import Graph, NodeSet, Rng
from .model import ForwardPass, Predictor, XgknModel, forward_batch
from .numkit import Tensor, softmax
from .record import Record

MAX_EXACT_PLAYERS = 20


class Attribution(Record):
    """Per-concept Shapley attributions of a batch of predictions: row i of
    ``phi`` (and entry i of the other fields) belongs to prediction i."""

    phi0: np.ndarray
    phi: np.ndarray
    target_logit: np.ndarray
    target_class: np.ndarray

    def efficiency_gap(self) -> float:
        """The largest |phi0 + sum(phi) - target logit| over the batch."""
        gaps = np.abs(self.phi0 + self.phi.sum(axis=1) - self.target_logit)
        return float(gaps.max(initial=0.0))


class Explanation(Record):
    """Importance map plus the thresholded node selection for one input."""

    importance: np.ndarray
    selected: NodeSet
    threshold: float


def exact_shapley(model: XgknModel, z: np.ndarray, baseline: np.ndarray,
                  target_class) -> Attribution:
    """Exact Shapley values of the predictor's target logit over the score
    coordinates, for each row of ``z`` and its entry of ``target_class``.

    With ``predictor_depth: 1`` the game is affine, so phi_i =
    s_i gamma_i W_ic (z_i - b_i), where s = 1 / sqrt(running_var + bn_eps)
    (linear SHAP). The depth-2 MLP enumerates all 2^m coalitions of each row
    (``enumerated_shapley``). phi0 and the target logits come from one
    predictor pass over the baseline and the rows of ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    baseline = np.asarray(baseline, dtype=np.float64).reshape(-1)
    target = np.asarray(target_class, dtype=np.int64).reshape(-1)
    m = z.shape[1]
    if baseline.size != m:
        raise ShapeError(f"baseline size {baseline.size} != {m}")
    if target.size != z.shape[0]:
        raise ShapeError(f"{target.size} target classes for {z.shape[0]} score rows")
    pred = model.predictor
    if len(pred.layers) > 1 and m > MAX_EXACT_PLAYERS:
        raise CapacityError(
            f"{m} concepts exceed the exact enumeration cap of {MAX_EXACT_PLAYERS}")
    logits = pred.logits(Tensor(np.vstack([baseline, z])), training=False).values
    if len(pred.layers) == 1:
        scale = 1.0 / np.sqrt(pred.running_var[0] + pred.bn_eps)
        phi = (z - baseline) * scale * pred.gamma.values[0] * pred.layers[0][0].values[:, target].T
    else:
        phi = np.array([enumerated_shapley(pred, row, baseline, c)
                        for row, c in zip(z, target)]).reshape(-1, m)
    return Attribution(phi0=logits[0, target], phi=phi,
                       target_logit=logits[1 + np.arange(target.size), target],
                       target_class=target)


def enumerated_shapley(predictor: Predictor, z: np.ndarray, baseline: np.ndarray,
                       target_class: int) -> np.ndarray:
    """The Shapley values of one score vector ``z``, by enumerating all 2^m
    coalitions through the predictor (any depth)."""
    m = z.size
    masks = np.arange(1 << m, dtype=np.int64)
    membership = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    coalition_scores = np.where(membership, z, baseline)
    game = predictor.logits(Tensor(coalition_scores), training=False).values[:, target_class]
    sizes = membership.sum(axis=1)
    fact = [math.factorial(i) for i in range(m + 1)]
    weight_by_size = np.array([fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)])
    phi = np.zeros(m)
    for i in range(m):
        without = masks[~membership[:, i]]
        w = weight_by_size[sizes[without]]
        phi[i] = float((w * (game[without | (1 << i)] - game[without])).sum())
    return phi


def propagate_to_nodes(attr: Attribution, fp: ForwardPass, agg_mode: str,
                       eps: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Spread each graph's concept attributions onto its nodes, the rows of
    the pass ``fp``.

    Additive modes distribute phi_i proportionally to each node's share of the
    concept score, added concept by concept; max routes phi_i entirely to the
    argmax node. Returns the node weights and the (graph, concept) pairs
    skipped because the concept's score was numerically zero.
    """
    num_graphs, m = attr.phi.shape
    if fp.contributions.shape[1] != m or fp.z.shape[0] != num_graphs:
        raise ShapeError(f"pass has {fp.z.shape[0]} graphs x {fp.contributions.shape[1]} "
                         f"concepts, attribution has {num_graphs} x {m}")
    w = np.zeros(fp.contributions.shape[0])
    if agg_mode == "max":
        if fp.argmax_rows is None:
            raise ShapeError("max-mode propagation needs argmax rows in the pass")
        for i in range(m):
            # the graphs' argmax rows are distinct, so no update is lost
            w[fp.argmax_rows[:, i]] += attr.phi[:, i]
        return w, np.zeros((0, 2), dtype=np.int64)
    inactive = np.abs(fp.z) <= eps
    seg = np.repeat(np.arange(num_graphs), np.diff(fp.bounds))
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = np.where(inactive[seg], 0.0, attr.phi[seg] * fp.contributions / fp.z[seg])
    for i in range(m):
        w += shares[:, i]
    return w, np.argwhere(inactive)


def importance_maps(model: XgknModel, fp: ForwardPass) -> list[np.ndarray]:
    """Softmax importance map over the nodes of each graph of the pass
    ``fp``, for the model's own predictions; deterministic for a frozen
    model."""
    attr = exact_shapley(model, fp.z, model.z_baseline, fp.predicted)
    weights, _ = propagate_to_nodes(attr, fp, model.config.agg_mode)
    return [softmax(weights[a:b]) for a, b in zip(fp.bounds, fp.bounds[1:])]


def node_importances(model: XgknModel, graphs) -> list[np.ndarray]:
    """The importance maps of ``graphs``, from one batched forward pass."""
    return importance_maps(model, forward_batch(model, graphs))


def node_importance(model: XgknModel, g: Graph) -> np.ndarray:
    """The importance map of one graph: ``node_importances`` of a batch of one."""
    return node_importances(model, [g])[0]


def threshold_explanations(graphs, importances, p) -> list[Explanation]:
    """Select, in each graph, the nodes above the percentile threshold ``p``:
    one threshold for every graph, or a sequence of one per graph.

    Each graph's nodes are sorted by ascending importance; the largest prefix
    whose cumulative mass stays <= p is excluded. Nodes tied with the
    boundary value are all selected, and a selection is never empty (top-1
    fallback). One ``lexsort`` orders every graph's nodes, and the running
    sums are one ``cumsum`` along the rows of a zero-padded graphs x n_max
    array; it adds each row left to right, so every graph's sums equal its
    own ``cumsum`` bit for bit.
    """
    thresholds = np.asarray(p, dtype=np.float64).reshape(-1)
    outside = thresholds[~((thresholds >= 0.0) & (thresholds <= 1.0))]
    if outside.size:
        raise ValueError(f"threshold must lie in [0, 1], got {outside[0]}")
    importances = [np.asarray(imp, dtype=np.float64).reshape(-1) for imp in importances]
    if len(importances) != len(graphs):
        raise ShapeError(f"{len(importances)} importance maps for {len(graphs)} graphs")
    if thresholds.size == 1:
        thresholds = np.repeat(thresholds, len(graphs))
    if thresholds.size != len(graphs):
        raise ShapeError(f"{thresholds.size} thresholds for {len(graphs)} graphs")
    for g, importance in zip(graphs, importances):
        if importance.shape[0] != g.n:
            raise ShapeError(f"importance length {importance.shape[0]} != {g.n} nodes")
    if not graphs:
        return []
    sizes = np.array([g.n for g in graphs])
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.concatenate(importances)
    owner = np.repeat(np.arange(len(graphs)), sizes)
    pos = np.arange(flat.size) - bounds[owner]
    # by graph, then importance, then position: each graph's rows keep their
    # place in ``flat`` and hold that graph's ascending order
    order = np.lexsort((pos, flat, owner))
    # one zero column past the largest graph, so every boundary index exists
    cols = np.arange(int(sizes.max()) + 1)
    ranked = np.zeros((len(graphs), cols.size))
    ranked[owner, pos] = flat[order]
    # exclude the longest ascending prefix whose running sum stays <= p
    fits = (np.cumsum(ranked, axis=1) <= thresholds[:, None] + 1e-12) & (cols < sizes[:, None])
    prefix_len = np.argmin(fits, axis=1)
    # never split a tie group across the boundary: nodes tied with the
    # lowest selected value are all selected
    boundary = ranked[np.arange(len(graphs)), prefix_len]
    below = np.count_nonzero((ranked < boundary[:, None] - 1e-12)
                             & (cols < prefix_len[:, None]), axis=1)
    prefix_len = np.where((prefix_len > 0) & (prefix_len < sizes), below, prefix_len)
    keep = np.ones(flat.size, dtype=bool)
    keep[order[pos < prefix_len[owner]]] = False
    for gi in np.flatnonzero(np.bincount(owner, weights=keep, minlength=len(graphs)) == 0):
        keep[bounds[gi] + np.argmax(importances[gi])] = True  # the top-1 fallback
    selected = np.split(np.concatenate([g.node_ids for g in graphs])[keep],
                        np.cumsum(np.bincount(owner[keep], minlength=len(graphs)))[:-1])
    return [Explanation(importance=importance.copy(), selected=NodeSet(tuple(ids.tolist())),
                        threshold=float(threshold))
            for importance, ids, threshold in zip(importances, selected, thresholds)]


def threshold_explanation(g: Graph, importance: np.ndarray, p: float) -> Explanation:
    """The explanation of one graph at threshold ``p``:
    ``threshold_explanations`` of a batch of one."""
    return threshold_explanations([g], [importance], p)[0]


DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


class ThresholdSelection(Record):
    p: float
    criterion: str
    scores: dict


def criterion_score(model: XgknModel, ds: Dataset, importances: list[np.ndarray],
                    p: float, criterion: str, cfg=None, rng: Rng | None = None,
                    predicted: list[int] | None = None) -> float:
    """Score one candidate threshold under the selection criterion.
    ``predicted`` may carry the graphs' predicted classes, which ``i1+i2``
    otherwise scores anew."""
    explanations = threshold_explanations(ds.graphs, importances, p)
    from . import metrics  # deferred: metrics builds on this module
    if criterion == "a1":
        return metrics.metric_a1(explanations, ds).value
    if criterion == "i1+i2":
        if cfg is None:
            cfg = metrics.AimConfig()
        if rng is None:
            rng = Rng(0)
        # round, not int: int(0.29 * 100) is 28, which would give 0.28 and 0.29
        # the same samples
        key = round(p * 100)
        i1 = metrics.metric_sufficiency_necessity(
            model, ds, explanations, "I1", cfg, rng.derive("i1", key), predicted)
        i2 = metrics.metric_sufficiency_necessity(
            model, ds, explanations, "I2", cfg, rng.derive("i2", key), predicted)
        return i1.value + i2.value
    raise ValueError(f"unknown threshold criterion {criterion!r}")


def select_threshold(model: XgknModel, ds: Dataset, criterion: str,
                     grid=DEFAULT_THRESHOLD_GRID, cfg=None,
                     rng: Rng | None = None,
                     importances: list[np.ndarray] | None = None,
                     predicted: list[int] | None = None) -> ThresholdSelection:
    """Pick the grid threshold maximizing the criterion (ties -> smallest p).

    ``importances`` may carry precomputed maps (the map itself is
    threshold-independent); they are recomputed otherwise. ``predicted`` is
    passed on to ``criterion_score``.
    """
    if not grid:
        raise ValueError("threshold grid must be nonempty")
    if importances is None:
        importances = node_importances(model, ds.graphs)
    scores = {}
    for p in sorted(grid):
        scores[p] = criterion_score(model, ds, importances, p, criterion, cfg, rng,
                                    predicted)
    best_score = max(scores.values())
    best_p = min(p for p in scores if scores[p] >= best_score)
    return ThresholdSelection(p=best_p, criterion=criterion, scores=scores)


# ---------------------------------------------------------------------------
# explanation export (line-delimited records)

def explanation_record(graph_id: int, expl: Explanation) -> dict:
    return {
        "graph_id": int(graph_id),
        "importance": [float(x) for x in expl.importance],
        "selected": [int(i) for i in expl.selected.ids],
        "threshold": float(expl.threshold),
    }


def write_explanations(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_explanations(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
