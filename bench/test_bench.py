"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q

The smoke tests run the real five-stage CLI on each workload at a tiny size
(about a minute in all).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import tracer  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_time_on_nested_tree():
    tree = [
        span("model.train", 0.0, 10.0),
        span("kernel.combine_stacks", 1.0, 4.0, 0),
        span("kernel.stack_responses", 5.0, 9.0, 0),
        span("numkit.backward", 6.0, 7.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    stats = spans.stage_statistics(tree)
    assert stats["model.train.s"] == pytest.approx(10.0)
    assert stats["model.train.self_s"] == pytest.approx(3.0)
    assert stats["kernel.stack_responses.self_s"] == pytest.approx(3.0)
    assert stats["root.s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)
    assert spans.covered([(1.0, 5.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)


def test_recursive_span_counts_once_in_inclusive_time():
    tree = [span("model.forward", 0.0, 4.0), span("model.forward", 1.0, 2.0, 0)]
    stats = spans.stage_statistics(tree)
    assert stats["model.forward.calls"] == 2
    assert stats["model.forward.s"] == pytest.approx(4.0)
    assert stats["model.forward.self_s"] == pytest.approx(4.0)


def test_metric_spans_count_forward_calls_and_acceptance():
    tree = [
        span("metrics.I3", 0.0, 10.0, attrs={"used": 1, "skipped": 1, "intended": 2}),
        span("model.forward", 0.5, 1.0, 0),
        span("graphs.perturb_features", 1.0, 2.0, 0),
        span("model.forward", 2.0, 3.0, 0),
        span("graphs.perturb_features", 3.0, 4.0, 0),
        span("explainer.node_importance", 4.0, 6.0, 0),
        span("model.forward", 4.5, 5.5, 5),
    ]
    values = spans.layer_metrics({"evaluate": tree}, {"evaluate": 20.0}, set())
    assert values["metrics.I3.forward_calls"] == 3
    assert values["metrics.I3.accept_ratio"] == pytest.approx(0.5)
    assert values["metrics.I3.skip_ratio"] == pytest.approx(0.5)
    assert values["model.forward.calls"] == 3
    assert values["trace.unattributed_share.evaluate"] == pytest.approx(0.5)


def test_missing_function_reports_none():
    values = spans.layer_metrics({}, {"train": 1.0}, {"model.forward"})
    assert values["model.forward.calls"] is None
    assert values["model.forward.s"] is None
    assert values["numkit.backward.calls"] == 0.0


def test_tracer_rebinds_every_import_and_marks_missing():
    import types

    def forward(model, g):
        return g * 2

    def metric(model, ds, mode):
        return ds

    home = types.ModuleType("model")
    home.forward = forward
    user = types.ModuleType("metrics")
    user.forward = forward
    user.metric_sufficiency_necessity = metric
    t = tracer.Tracer()
    t.install({"model": home, "metrics": user})
    assert home.forward is user.forward is not forward
    assert user.forward(None, 3) == 6
    user.metric_sufficiency_necessity(None, 1, mode="I2")
    assert [s[0] for s in t.spans] == ["model.forward", "metrics.I2"]
    assert "explainer.node_importance" in t.missing
    assert "metrics.I3" in t.missing and "metrics.I4" in t.missing


# ---------------------------------------------------------------------------
# names and arithmetic

@pytest.mark.parametrize("name", ["setup_s", "w3-ba2-i1i2", "metrics.I1.skip_ratio",
                                  "trace.unattributed_share.report", "9a", "a" * 64])
def test_valid_names(name):
    assert run.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "I1+I2", "a b", "a/b", "a" * 65])
def test_invalid_names(name):
    assert not run.valid_name(name)


def test_every_benchmark_name_is_valid_and_unique():
    names = (list(run.WORKLOADS) + list(run.END_TO_END)
             + [name for name, _ in run.PER_LAYER])
    assert all(run.valid_name(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_quartile_spread():
    values = list(range(1, 11))
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert run.quartile_spread(values) == pytest.approx(1.0)
    assert run.quartile_spread([2.0] * 5) == 0.0


def test_median_skips_missing_values():
    pipelines = [run.Pipeline(traced=False, values={"x": v}) for v in (3.0, None, 1.0, 2.0)]
    assert run._median(pipelines, "x") == 2.0
    assert run._median(pipelines, "y") is None


def test_throughput_is_total_work_over_total_time():
    def pipeline(train_s, evaluate_s):
        stages = [run.StageRun(stage, 1.0, 50.0, 0) for stage in spans.STAGES]
        stages[1].wall_s, stages[3].wall_s = train_s, evaluate_s
        return run.Pipeline(traced=False, stages=stages,
                            values={"train_graphs": 100, "test_graphs": 10})

    pipelines = [pipeline(1.0, 2.0), pipeline(3.0, 3.0)]
    setup = [run.StageRun("prepare", 0.5, 40.0, 0), run.StageRun("prepare", 0.7, 40.0, 0)]
    values = run.end_to_end_metrics(pipelines, setup + [s for p in pipelines for s in p.stages])
    assert values["train_graphs_per_s"] == pytest.approx(200 / 4.0)
    assert values["evaluate_graphs_per_s"] == pytest.approx(20 / 5.0)
    assert values["pipeline_s"] == pytest.approx((6.0 + 9.0) / 2)
    assert values["setup_s"] == pytest.approx(0.85)  # median of 0.5, 0.7, 1.0, 1.0
    assert values["peak_rss_mb"] == 50.0
    assert values["pass_ratio"] == 1.0


def test_times_are_scaled_by_the_run_calibration():
    runs = [run.StageRun("prepare", 1.0, 40.0, 0, calib_s=c) for c in (0.4, 0.6, 0.8)]
    factor = run.speed_factor(runs)
    assert factor == pytest.approx(0.6 / run.REFERENCE_CALIBRATION_S)
    stages = [run.StageRun(stage, 2.0, 50.0, 0) for stage in spans.STAGES]
    pipelines = [run.Pipeline(traced=False, stages=stages,
                              values={"train_graphs": 100, "test_graphs": 10})]
    raw = run.end_to_end_metrics(pipelines, runs)
    scaled = run.end_to_end_metrics(pipelines, runs, factor)
    assert scaled["setup_s"] == pytest.approx(raw["setup_s"] / factor)
    assert scaled["pipeline_s"] == pytest.approx(raw["pipeline_s"] / factor)
    assert scaled["train_graphs_per_s"] == pytest.approx(raw["train_graphs_per_s"] * factor)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_workload_config_is_a_function_of_the_seed():
    a = run.workload_config("w3-ba2-i1i2", 7)
    assert a == run.workload_config("w3-ba2-i1i2", 7)
    assert a["dataset"]["seed"] != run.workload_config("w3-ba2-i1i2", 8)["dataset"]["seed"]
    redraw = run.workload_config("w3-ba2-i1i2", 7, attempt=1)
    assert redraw["dataset"] == a["dataset"] and redraw["seeds"] != a["seeds"]


# ---------------------------------------------------------------------------
# tiny-size smoke runs of each workload

_workload_config = run.workload_config


def tiny_config(name: str, seed: int, attempt: int = 0) -> dict:
    config = _workload_config(name, seed, attempt)
    config["dataset"]["n_graphs"] = 20
    config["train"].update(epochs=2, patience=2)
    config["aim"]["samples_per_graph"] = 2
    return config


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_passes_output_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "workload_config", tiny_config)
    deadline = time.perf_counter() + 170
    config, setup = run.set_up(workload, 3, tmp_path, deadline)
    assert [r.problems for r in setup] == [[]] * len(setup)
    first = run.run_pipeline(config, tmp_path / "a", False, deadline)
    assert first.complete, [s.problems for s in first.stages]
    assert all(s.calib_s > 0 for s in first.stages)
    assert first.values["train_graphs"] > 0
    second = run.run_pipeline(config, tmp_path / "b", True, deadline)
    run.compare_digests(first, second)
    assert second.complete, [s.problems for s in second.stages]
    assert second.values["model.forward.calls"] > 0
    uniform = second.values["kernel.stack_responses.uniform_share"]
    assert uniform < 0.5 if workload == "w2-ba2-onehot" else uniform == 1.0
