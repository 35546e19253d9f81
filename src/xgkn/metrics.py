"""The ten explanation-quality metrics (A1, A2, I1-I5, M1-M3) plus cross-seed
aggregation into a report with pairwise significance tests.

All metrics land in [0, 1] with higher = better: the model-level family and A2
measure a discrepancy gamma and are reported as 1 - gamma. Monte-Carlo metrics
are seed-deterministic; samples that cannot be realized (empty subgraphs,
perturbations that flip the prediction too often) are skipped and counted, and
a metric with more than half its samples skipped is flagged invalid instead of
silently averaged.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .data import Dataset
from .errors import (
    AlignmentError,
    MissingGroundTruthError,
    UndefinedMetricError,
)
from .explainer import Explanation, node_importances, threshold_explanations
from .ged import binarize_filter, ged_exact
from .graphs import (
    Graph,
    NodeSet,
    Rng,
    iou_nodes,
    perturb_edges,
    perturb_features,
)
from .kernel import Subgraphs
from .model import XgknModel, forward_batch, perturb_filters
from .numkit import spearman_abs, welch_ttest
from .record import Record, replace

AIM_METRIC_ORDER = ("A1", "A2", "I1", "I2", "I3", "I4", "I5", "M1", "M2", "M3")

REPORT_NOTES = (
    "A2, M1, M2 and M3 are reported as 1 - gamma so higher is better",
    "M3 averages over the m(m-1)/2 unordered filter pairs",
    "I5 is measured across models retrained under different seeds",
    "Shapley baseline: mean aggregated score vector over the training split",
)


class AimConfig(Record):
    """Perturbation and sampling knobs for the metric suite."""

    samples_per_graph: int = 10
    inclusion_probability: float = 0.5
    delta_feature_robustness: float = 0.1
    delta_edge_remove: float = 0.1
    edge_add_scale: float = 0.1
    delta_edge_add: float | None = None
    delta_filter_features: float = 0.5
    delta_filter_edges: float = 0.5
    max_retries: int = 10
    alpha: float = 0.05
    feature_pool_scope: str = "dataset"

    def __post_init__(self):
        for name in ("inclusion_probability", "delta_feature_robustness",
                     "delta_edge_remove", "delta_filter_features", "delta_filter_edges",
                     "alpha", "delta_edge_add"):
            p = getattr(self, name)
            if p is not None and not (0.0 < p < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {p}")
        for name in ("samples_per_graph", "max_retries", "edge_add_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.feature_pool_scope not in ("dataset", "train"):
            raise ValueError("feature_pool_scope must be 'dataset' or 'train'")

    def resolve_edge_add(self, ds: Dataset) -> float:
        if self.delta_edge_add is not None:
            return self.delta_edge_add
        return self.edge_add_scale * ds.average_density()


class MetricResult(Record):
    name: str
    value: float
    n_used: int
    n_skipped: int = 0
    valid: bool = True

    def __post_init__(self):
        if self.valid and not (-1e-9 <= self.value <= 1.0 + 1e-9):
            raise UndefinedMetricError(
                f"{self.name} produced {self.value}, outside [0, 1]")
        object.__setattr__(self, "value", float(min(max(self.value, 0.0), 1.0)))


def _result(name: str, values: list[float], n_skipped: int = 0,
            intended: int | None = None) -> MetricResult:
    intended = intended if intended is not None else len(values) + n_skipped
    valid = bool(values) and (n_skipped <= 0.5 * max(intended, 1))
    value = float(np.mean(values)) if values else 0.0
    return MetricResult(name=name, value=value if valid else 0.0,
                        n_used=len(values), n_skipped=n_skipped, valid=valid)


def _check_alignment(explanations, ds: Dataset) -> None:
    if len(explanations) != len(ds.graphs):
        raise AlignmentError(
            f"{len(explanations)} explanations for {len(ds.graphs)} graphs")


# ---------------------------------------------------------------------------
# accuracy metrics

def metric_a1(explanations: list[Explanation], ds: Dataset) -> MetricResult:
    """Mean IoU between selected explanation nodes and ground-truth masks;
    graphs without a mask or with an empty one are excluded."""
    _check_alignment(explanations, ds)
    if ds.gt_instance_masks is None:
        raise MissingGroundTruthError("A1 needs per-graph ground-truth masks")
    values = []
    for i, expl in enumerate(explanations):
        mask = ds.gt_instance_masks[i]
        if mask is None or len(mask) == 0:
            continue
        values.append(iou_nodes(expl.selected, NodeSet(mask.ids)))
    if not values:
        raise MissingGroundTruthError("no graph carries a usable ground-truth mask")
    return _result("A1", values)


def metric_a2(model: XgknModel, ds: Dataset) -> MetricResult:
    """1 - mean over ground-truth motifs of the best (minimum) normalized edit
    distance achieved by any binarized filter."""
    if not ds.gt_motifs:
        raise MissingGroundTruthError("A2 needs ground-truth motif graphs")
    feature_rows = None
    dims = {m.feature_dim for m in ds.gt_motifs}
    if dims == {ds.feature_dim}:
        pool = ds.feature_pool()
        if (pool != pool[:1]).any():
            feature_rows = pool
    bank = model.bank
    discrete = [binarize_filter(a, f, feature_rows, model.encoder)
                for a, f in zip(bank.adjacency_values(), bank.blocks(bank.features.values))]
    return _result("A2", [1.0 - float(np.mean(
        [_nearest_filter_distance(discrete, motif) for motif in ds.gt_motifs]))])


def _nearest_filter_distance(filters: list[Graph], motif: Graph) -> float:
    """``min(ged_normalized(d, motif) for d in filters)``, exactly.

    Filters are searched in ascending order of the root bound, and each search
    stops once it cannot beat the best normalised distance ``best / best_worst``
    found so far. Distances are integers, so the comparison stays in integers.
    """
    sizes = [(d.n, d.num_edges()) for d in filters]
    n2, e2 = motif.n, motif.num_edges()
    worsts = [n1 + e1 + n2 + e2 for n1, e1 in sizes]
    if 0 in worsts:
        return 0.0
    visits = sorted(range(len(filters)), key=lambda i: (
        abs(sizes[i][0] - n2) + abs(sizes[i][1] - e2)) / worsts[i])
    best, best_worst = math.inf, 1
    for i in visits:
        worst = worsts[i]
        # the least integer distance d with d / worst >= best / best_worst
        cutoff = math.inf if best == math.inf else -(-best * worst // best_worst)
        distance = int(ged_exact(filters[i], motif, cutoff))
        if distance < cutoff:
            best, best_worst = distance, worst
    return best / best_worst


# ---------------------------------------------------------------------------
# instance-level metrics

def _draw_samples(graphs, explanations: list[Explanation], mode: str, cfg: AimConfig,
                  streams: list[Rng]) -> tuple[Subgraphs, int]:
    """The I1 supergraphs or I2 subgraphs of ``graphs``, each listing its
    positions in node-id order, and how many samples drew an empty node set
    ``max_retries`` times and were skipped. Graph g draws from ``streams[g]``:
    each try keeps every node outside its explanation with probability
    ``inclusion_probability``, one draw per node in position order, and I1
    keeps the explanation too. The first tries of all samples are read as one
    block per graph; a graph with an empty try replays them in stream order."""
    parents, count = Subgraphs.whole(graphs), cfg.samples_per_graph
    starts = parents.bounds[:-1]
    owner = np.repeat(np.arange(len(graphs)), parents.parent_sizes)
    selected = np.concatenate([np.zeros(0, dtype=bool)] + [np.fromiter(
        map(set(e.selected.ids).__contains__, g.node_ids.tolist()), dtype=bool, count=g.n)
        for g, e in zip(graphs, explanations)])
    # one entry per (sample, node) pair, graph by graph and sample by sample
    sample_parent = np.repeat(np.arange(len(graphs)), count)
    width = parents.parent_sizes[sample_parent]
    sample = np.repeat(np.arange(sample_parent.size), width)
    node = starts[sample_parent][sample] + np.arange(sample.size) \
        - np.repeat(np.cumsum(width) - width, width)
    others = np.bincount(owner, weights=~selected, minlength=len(graphs)).astype(np.int64)

    def fresh(gi: int) -> np.ndarray:
        """One more try of graph gi, over its positions."""
        fixed = selected[starts[gi]:][:parents.parent_sizes[gi]]
        row = fixed & (mode == "I1")
        row[~fixed] = streams[gi].random(others[gi]) < cfg.inclusion_probability
        return row

    keep = selected[node] & (mode == "I1")
    keep[~selected[node]] = np.concatenate([np.zeros(0)] + [
        stream.random(count * m) for stream, m in zip(streams, others)]) \
        < cfg.inclusion_probability
    full = np.bincount(sample, weights=keep, minlength=sample_parent.size) > 0
    # an empty try moves every later sample of its graph on by one try (a
    # graph with no node to draw repeats the same empty try: all skipped)
    for gi in np.flatnonzero(~full.reshape(-1, count).all(axis=1) & (others > 0)):
        block = keep[count * starts[gi]:][
            :count * parents.parent_sizes[gi]].reshape(count, -1)
        rows = itertools.chain(block.copy(), map(fresh, itertools.repeat(gi)))
        for i in range(count):
            row = next((row for _, row in zip(range(cfg.max_retries), rows) if row.any()), None)
            block[i] = False if row is None else row
    full = np.bincount(sample, weights=keep, minlength=sample_parent.size) > 0
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort((parents.node_ids[node[kept]], sample[kept]))]
    sizes = np.bincount(sample[kept], minlength=sample_parent.size)[full]
    return replace(parents, parent_of=sample_parent[full],
                   positions=node[kept] - starts[sample_parent[sample[kept]]],
                   bounds=np.concatenate(([0], np.cumsum(sizes)))), int((~full).sum())


def _check_predicted(predicted: list[int] | None, ds: Dataset) -> None:
    if predicted is not None and len(predicted) != len(ds.graphs):
        raise AlignmentError(
            f"{len(predicted)} predicted classes for {len(ds.graphs)} graphs")


def metric_sufficiency_necessity(model: XgknModel, ds: Dataset,
                                 explanations: list[Explanation], mode: str,
                                 cfg: AimConfig, rng: Rng,
                                 predicted: list[int] | None = None) -> MetricResult:
    """I1: prediction preserved on random supergraphs of the explanation.
    I2: prediction changed on random subgraphs that exclude the explanation.

    Every sample is drawn first, from its graph's own stream, as a mask over
    its graph's positions, and then all samples go through one batched
    forward pass without being built as graphs. ``predicted`` holds the
    graphs' predicted classes when the caller has scored them already."""
    if mode not in ("I1", "I2"):
        raise ValueError("mode must be 'I1' or 'I2'")
    _check_alignment(explanations, ds)
    _check_predicted(predicted, ds)
    samples, skipped = _draw_samples(ds.graphs, explanations, mode, cfg,
                                     [rng.derive(mode, gi) for gi in range(len(ds.graphs))])
    if predicted is None:
        predicted = forward_batch(model, ds.graphs).predicted.tolist()
    same = forward_batch(model, samples).predicted == np.asarray(predicted)[samples.parent_of]
    # each graph with samples scores its hits over its sample count
    counts = np.bincount(samples.parent_of, minlength=len(ds.graphs))
    hits = np.bincount(samples.parent_of, weights=same if mode == "I1" else ~same,
                       minlength=len(ds.graphs))
    values = (hits[counts > 0] / counts[counts > 0]).tolist()
    intended = len(ds.graphs) * cfg.samples_per_graph
    return _result(mode, values, n_skipped=skipped, intended=intended)


def _explanation_edges(g: Graph, selected: NodeSet) -> set[tuple[int, int]]:
    ids = set(selected.ids)
    return {(a, b) for a, b in g.edge_list() if a in ids and b in ids}


def metric_robustness(model: XgknModel, ds: Dataset, explanations: list[Explanation],
                      mode: str, cfg: AimConfig, rng: Rng,
                      feature_pool: np.ndarray | None = None,
                      predicted: list[int] | None = None) -> MetricResult:
    """Explanation stability under input edits that keep the prediction:
    I3 resamples node features outside the explanation, I4 rewires edges
    outside it. Scores IoU(h(perturbed), h(original)) under identity node
    mapping (perturbations preserve node ids).

    Retries run in rounds: each graph whose prediction no perturbation has
    kept yet draws its next one from its own stream, and each round is one
    batched forward pass. ``feature_pool`` defaults to the rows of ``ds``;
    callers evaluating on a subset pass the configured pool (full dataset or
    training split). ``predicted`` holds the graphs' predicted classes when
    the caller has scored them already.
    """
    if mode not in ("I3", "I4"):
        raise ValueError("mode must be 'I3' or 'I4'")
    _check_alignment(explanations, ds)
    _check_predicted(predicted, ds)
    pool = ds.feature_pool() if feature_pool is None else feature_pool
    delta_add = cfg.resolve_edge_add(ds)
    graphs = ds.graphs
    streams = [rng.derive(mode, gi) for gi in range(len(graphs))]

    def perturb(gi: int) -> Graph:
        g, expl = graphs[gi], explanations[gi]
        if mode == "I3":
            return perturb_features(g, cfg.delta_feature_robustness, pool,
                                    streams[gi], exclude=expl.selected)
        return perturb_edges(g, delta_add, cfg.delta_edge_remove, streams[gi],
                             protected=_explanation_edges(g, expl.selected))

    if predicted is None:
        predicted = forward_batch(model, graphs).predicted.tolist()
    accepted: dict[int, Graph] = {}
    pending = list(range(len(graphs)))
    for _ in range(cfg.max_retries):
        if not pending:
            break
        candidates = [perturb(gi) for gi in pending]
        classes = forward_batch(model, candidates).predicted
        for gi, candidate, cls in zip(pending, candidates, classes):
            if cls == predicted[gi]:
                accepted[gi] = candidate
        pending = [gi for gi in pending if gi not in accepted]
    kept = sorted(accepted)
    kept_graphs = [accepted[gi] for gi in kept]
    new_expls = threshold_explanations(kept_graphs, node_importances(model, kept_graphs),
                                       [explanations[gi].threshold for gi in kept])
    values = [iou_nodes(new_expl.selected, explanations[gi].selected)
              for gi, new_expl in zip(kept, new_expls)]
    return _result(mode, values, n_skipped=len(graphs) - len(kept), intended=len(graphs))


def metric_consistency(run_a: list[Explanation], run_b: list[Explanation]) -> MetricResult:
    """Mean IoU between two runs' selected node sets on the same graphs."""
    if len(run_a) != len(run_b):
        raise AlignmentError(
            f"runs cover {len(run_a)} vs {len(run_b)} graphs")
    values = [iou_nodes(NodeSet(a.selected.ids), NodeSet(b.selected.ids))
              for a, b in zip(run_a, run_b)]
    return _result("I5", values)


# ---------------------------------------------------------------------------
# model-level metrics

def metric_correctness(model: XgknModel, ds: Dataset, explanations: list[Explanation],
                       mode: str, cfg: AimConfig, rng: Rng,
                       feature_pool: np.ndarray | None = None) -> MetricResult:
    """1 - mean IoU between explanations before and after perturbing the
    filters (M1: feature resampling, M2: edge toggling)."""
    if mode not in ("M1", "M2"):
        raise ValueError("mode must be 'M1' or 'M2'")
    _check_alignment(explanations, ds)
    if mode == "M1":
        pool = ds.feature_pool() if feature_pool is None else feature_pool
        perturbed_model = perturb_filters(model, "features", cfg.delta_filter_features,
                                          rng, feature_pool=pool)
    else:
        perturbed_model = perturb_filters(model, "edges", cfg.delta_filter_edges, rng)
    new_expls = threshold_explanations(ds.graphs, node_importances(perturbed_model, ds.graphs),
                                       [expl.threshold for expl in explanations])
    overlaps = [iou_nodes(new_expl.selected, expl.selected)
                for new_expl, expl in zip(new_expls, explanations)]
    return _result(mode, [1.0 - float(np.mean(overlaps))])


def metric_redundancy(streams: np.ndarray) -> MetricResult:
    """1 - mean absolute rank correlation between per-filter score streams,
    the columns of the graphs x filters score matrix ``streams``."""
    m = streams.shape[1]
    if m < 2:
        raise UndefinedMetricError("redundancy needs at least 2 filters")
    correlations = []
    for i in range(m):
        for j in range(i + 1, m):
            correlations.append(spearman_abs(streams[:, i], streams[:, j]))
    gamma = float(np.mean(correlations))
    return _result("M3", [1.0 - gamma])


# ---------------------------------------------------------------------------
# aggregation

class MetricSummary(Record):
    mean: float
    std: float
    values: tuple[float, ...]
    n_samples: int

    @staticmethod
    def from_values(values, n_samples: int = 0) -> "MetricSummary":
        arr = np.asarray(list(values), dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return MetricSummary(mean=float(arr.mean()), std=std,
                             values=tuple(float(v) for v in arr),
                             n_samples=n_samples)


class AimReport(Record):
    metrics: dict
    config: dict
    notes: tuple[str, ...]
    ttests: tuple[dict, ...] = ()
    invalid: tuple[str, ...] = ()

    def radar_series(self) -> list[tuple[str, float]]:
        return [(name, self.metrics[name].mean)
                for name in AIM_METRIC_ORDER if name in self.metrics]

    def to_dict(self) -> dict:
        return {
            "metrics": {
                name: {"mean": s.mean, "std": s.std, "values": list(s.values),
                       "n_samples": s.n_samples}
                for name, s in self.metrics.items()
            },
            "config": self.config,
            "notes": list(self.notes),
            "ttests": list(self.ttests),
            "invalid": list(self.invalid),
        }


def aim_report(values_by_metric: dict, comparisons: dict | None = None,
               config: dict | None = None, alpha: float = 0.05,
               sample_counts: dict | None = None,
               invalid: tuple[str, ...] = ()) -> AimReport:
    """Aggregate per-seed metric values into mean/std summaries and, when a
    comparison run is supplied, a pairwise Welch t-test table."""
    metrics = {}
    for name, values in values_by_metric.items():
        count = (sample_counts or {}).get(name, 0)
        metrics[name] = MetricSummary.from_values(values, n_samples=count)
    ttests = []
    for other_name, other_values in (comparisons or {}).items():
        for name in values_by_metric:
            if name not in other_values:
                continue
            ours = list(values_by_metric[name])
            theirs = list(other_values[name])
            if len(ours) < 2 or len(theirs) < 2:
                continue
            if np.var(ours, ddof=1) == 0.0 and np.var(theirs, ddof=1) == 0.0:
                identical = np.allclose(np.mean(ours), np.mean(theirs))
                ttests.append({"metric": name, "against": other_name,
                               "t": 0.0 if identical else float("inf"),
                               "df": float(len(ours) + len(theirs) - 2),
                               "p_value": 1.0 if identical else 0.0,
                               "significant": not identical})
                continue
            res = welch_ttest(ours, theirs, alpha=alpha)
            ttests.append({"metric": name, "against": other_name, "t": res.t,
                           "df": res.df, "p_value": res.p_value,
                           "significant": res.significant})
    return AimReport(metrics=metrics, config=config or {}, notes=REPORT_NOTES,
                     ttests=tuple(ttests), invalid=tuple(invalid))
