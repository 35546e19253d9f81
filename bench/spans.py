"""Span-tree arithmetic for the traced benchmark run.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list (or -1 for a root span) and ``attrs`` is
a dict of counts read from the call's arguments and result (or None). The
tracer appends spans in start order, so a parent always precedes its
children.

This module has no dependency on xgkn, so its arithmetic can be tested on
synthetic trees.
"""

from __future__ import annotations

from collections import defaultdict

STAGES = ("prepare", "train", "explain", "evaluate", "report")

# Per-layer metrics reported by the traced run, with their units. A name is
# "<span name>.<statistic>"; the span names are the ones tracer.TRACED
# assigns. The trace.* metrics are computed from stage wall times.
LAYER_METRICS = (
    ("cli.load_prepared.calls", "count"),
    ("cli.load_prepared.s", "s"),
    ("cli.dataset_to_dict.s", "s"),
    ("data.generate.s", "s"),
    ("data.apply_feature_policy.s", "s"),
    ("graphs.k_hop_neighborhood.calls", "count"),
    ("graphs.k_hop_neighborhood.s", "s"),
    ("graphs.induced_subgraph.calls", "count"),
    ("graphs.induced_subgraph.s", "s"),
    ("graphs.perturb_features.calls", "count"),
    ("graphs.perturb_features.s", "s"),
    ("graphs.perturb_edges.calls", "count"),
    ("graphs.perturb_edges.s", "s"),
    ("kernel.build_subgraph_stack.calls", "count"),
    ("kernel.build_subgraph_stack.s", "s"),
    ("kernel.build_subgraph_stack.self_s", "s"),
    ("kernel.build_subgraph_stack.rows", "count"),
    ("kernel.combine_stacks.calls", "count"),
    ("kernel.combine_stacks.s", "s"),
    ("kernel.stack_responses.calls", "count"),
    ("kernel.stack_responses.s", "s"),
    ("kernel.stack_responses.uniform_share", "ratio"),
    ("numkit.backward.calls", "count"),
    ("numkit.backward.s", "s"),
    ("numkit.adam_step.calls", "count"),
    ("numkit.adam_step.s", "s"),
    ("model.train.s", "s"),
    ("model.train.self_s", "s"),
    ("model.forward.calls", "count"),
    ("model.forward.s", "s"),
    ("model.forward.self_s", "s"),
    ("model.evaluate_accuracy.s", "s"),
    ("model.perturb_filters.s", "s"),
    ("explainer.node_importance.calls", "count"),
    ("explainer.node_importance.s", "s"),
    ("explainer.exact_shapley.calls", "count"),
    ("explainer.exact_shapley.s", "s"),
    ("explainer.exact_shapley.efficiency_gap_max", "logit"),
    ("explainer.propagate_to_nodes.s", "s"),
    ("explainer.propagate_to_nodes.inactive", "count"),
    ("explainer.threshold_explanation.calls", "count"),
    ("explainer.threshold_explanation.s", "s"),
    ("explainer.select_threshold.s", "s"),
    ("explainer.criterion_score.calls", "count"),
    ("explainer.criterion_score.s", "s"),
    *((f"metrics.{m}.{stat}", unit)
      for m in ("I1", "I2", "I3", "I4")
      for stat, unit in (("s", "s"), ("forward_calls", "count"), ("skip_ratio", "ratio"))),
    ("metrics.I3.accept_ratio", "ratio"),
    ("metrics.I4.accept_ratio", "ratio"),
    ("metrics.A1.s", "s"),
    ("metrics.A2.s", "s"),
    ("metrics.M1.s", "s"),
    ("metrics.M2.s", "s"),
    ("metrics.M3.s", "s"),
    ("ged.ged_exact.calls", "count"),
    ("ged.ged_exact.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    *((f"trace.unattributed_share.{stage}", "ratio") for stage in STAGES),
)

# Span attributes are summed over spans, except these, which take the maximum.
_ATTR_MAX = {"efficiency_gap_max"}


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        out.append((end - start) - covered([c for c in clipped if c[1] > c[0]]))
    return out


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name, so that a recursive
    call is not counted twice in inclusive time."""
    out = []
    for name, _, _, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        out.append(p < 0)
    return out


def _ancestor_named(spans, i: int, prefix: str) -> int:
    p = spans[i][3]
    while p >= 0 and not spans[p][0].startswith(prefix):
        p = spans[p][3]
    return p


# Spans counted on the nearest enclosing metric span (metrics.I1 ...), by name.
_COUNTED_UNDER_METRIC = {
    "model.forward": "forward_calls",
    "graphs.perturb_features": "perturb_attempts",
    "graphs.perturb_edges": "perturb_attempts",
}


def _add(stats: dict, key: str, value: float) -> None:
    if key.rsplit(".", 1)[1] in _ATTR_MAX:
        stats[key] = max(stats.get(key, value), value)
    else:
        stats[key] += value


def stage_statistics(spans) -> dict[str, float]:
    """Per-span-name statistics of one process: ``calls``, ``s`` (inclusive),
    ``self_s`` and the attribute statistics, keyed "<span name>.<stat>";
    ``root.s`` is the time covered by root spans."""
    stats: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    outer = _outermost(spans)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += selfs[i]
        if outer[i]:
            stats[f"{name}.s"] += end - start
        for key, value in (attrs or {}).items():
            _add(stats, f"{name}.{key}", value)
        if name in _COUNTED_UNDER_METRIC:
            m = _ancestor_named(spans, i, "metrics.")
            if m >= 0:
                stats[f"{spans[m][0]}.{_COUNTED_UNDER_METRIC[name]}"] += 1
        if parent < 0:
            stats["root.s"] += end - start
    return dict(stats)


def _ratio(num: float, den: float):
    return num / den if den else None


def layer_metrics(stage_spans: dict, stage_walls: dict, missing: set) -> dict:
    """Per-layer metric values of one traced pipeline run, all but
    ``trace.overhead_ratio``, which compares runs.

    ``stage_spans`` maps a stage to its process's span list, ``stage_walls``
    to that process's wall time; ``missing`` holds span names whose function
    no longer exists. A metric of a missing span is None.
    """
    per_stage = {stage: stage_statistics(spans) for stage, spans in stage_spans.items()}
    total: dict[str, float] = defaultdict(float)
    for stats in per_stage.values():
        for key, value in stats.items():
            _add(total, key, value)
    derived = {
        "kernel.stack_responses.uniform_share": _ratio(
            total.get("kernel.stack_responses.uniform", 0.0),
            total.get("kernel.stack_responses.calls", 0.0)),
    }
    for m in ("I1", "I2", "I3", "I4"):
        derived[f"metrics.{m}.skip_ratio"] = _ratio(
            total.get(f"metrics.{m}.skipped", 0.0), total.get(f"metrics.{m}.intended", 0.0))
    for m in ("I3", "I4"):
        derived[f"metrics.{m}.accept_ratio"] = _ratio(
            total.get(f"metrics.{m}.used", 0.0), total.get(f"metrics.{m}.perturb_attempts", 0.0))
    for stage, wall in stage_walls.items():
        root = per_stage.get(stage, {}).get("root.s", 0.0)
        derived[f"trace.unattributed_share.{stage}"] = max(0.0, 1.0 - root / wall)
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            continue
        span_name = name.rsplit(".", 1)[0]
        if span_name in missing:
            out[name] = None
        elif name in derived:
            out[name] = derived[name]
        else:
            out[name] = total.get(name, 0.0)
    return out
