"""Acceptance suite: every criterion prints one PASS/FAIL line.

Criteria 1-5 reproduce the headline numbers at desk scale (5 seeds, 80/20
stratified splits) on the synthetic motif benchmark; 3 runs only when the
molecular dataset files are present. Criteria 6-12 are property-based and
need no external data.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from xgkn import numkit as nk
from xgkn.cli import main as cli_main
from xgkn.data import generate_ba2motifs, parse_tu_dataset, load_ground_truth_masks, \
    stratified_split
from xgkn.explainer import (
    exact_shapley,
    node_importance,
    propagate_to_nodes,
    select_threshold,
    threshold_explanation,
    criterion_score,
)
from xgkn.ged import ged_exact, ged_normalized
from xgkn.graphs import Graph, NodeSet, Rng
from xgkn.kernel import FeatureEncoder, build_subgraph_stack
from xgkn.metrics import (
    AimConfig,
    metric_a1,
    metric_correctness,
    metric_redundancy,
    metric_robustness,
    metric_sufficiency_necessity,
)
from xgkn.model import (
    ModelConfig,
    TrainConfig,
    evaluate_accuracy,
    forward_batch,
    init_model,
    train,
)

from conftest import random_graph, stack_responses_of, with_label
from oracles import GraphFilter, anchored_rw_kernel, bank_of, direct_product, filter_as_graph, \
    finite_difference_check, ged_bruteforce, node_pair_similarity, rw_kernel, \
    tsum, walk_kernel_bruteforce
from test_explainer import make_model
from test_metrics import duplicate_first_filter, score_matrix


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# desk-scale reproduction runs (criteria 1, 2, 4, 5)
#
# Calibrated over the published hyperparameter grid plus neighborhood size:
# tight node-centered subgraphs (radius 1, at most 5 nodes) keep the walk
# profiles structure-driven instead of hub-degree-driven, which is what lets
# the explanation accuracy land in the reported band. Training hyperparameters
# are the published ones.

N_GRAPHS = 500
SEEDS = (0, 1, 2, 3, 4)
MODEL_CONFIG = dict(num_filters=8, filter_size=6, embed_dim=16,
                    hop_radius=1, max_subgraph_size=5,
                    agg_mode="negative_entropy")
TRAIN_CONFIG = dict(epochs=600, lr=0.01, weight_decay=1e-4, batch_size=64,
                    patience=300)


@pytest.fixture(scope="module")
def ba2_runs():
    ds = generate_ba2motifs(N_GRAPHS, Rng(7))
    runs = []
    for seed in SEEDS:
        split = stratified_split(ds, 0.2, 1, seed=seed)[0]
        model = init_model(ModelConfig(**MODEL_CONFIG), ds.feature_dim,
                           ds.num_classes, Rng(seed))
        t0 = time.time()
        model, history = train(model, ds, split, TrainConfig(seed=seed, **TRAIN_CONFIG))
        train_seconds = time.time() - t0
        test_ds = ds.subset(split.test_ids)
        accuracy = evaluate_accuracy(model, ds, split.test_ids)

        t0 = time.time()
        importances = [node_importance(model, g) for g in test_ds.graphs]
        explain_seconds_per_graph = (time.time() - t0) / len(test_ds.graphs)

        selection = select_threshold(model, test_ds, "a1")
        explanations = [threshold_explanation(g, imp, selection.p)
                        for g, imp in zip(test_ds.graphs, importances)]
        a1 = metric_a1(explanations, test_ds).value
        shifted_a1 = {}
        for shift in (-0.1, 0.1):
            p_shift = round(min(max(selection.p + shift, 0.0), 1.0), 3)
            shifted_a1[p_shift] = criterion_score(
                model, test_ds, importances, p_shift, "a1")
        runs.append({
            "seed": seed,
            "model": model,
            "test_ds": test_ds,
            "accuracy": accuracy,
            "train_seconds": train_seconds,
            "epochs": len(history),
            "final_loss": history[-1]["loss"],
            "grid_a1": selection.scores,
            "a1": a1,
            "p": selection.p,
            "shifted_a1": shifted_a1,
            "explain_seconds_per_graph": explain_seconds_per_graph,
        })
    return runs


class TestPaperNumbers:
    def test_criterion_1_ba2motifs_accuracy(self, ba2_runs):
        accs = [r["accuracy"] for r in ba2_runs]
        worst_time = max(r["train_seconds"] for r in ba2_runs)
        mean_acc = float(np.mean(accs))
        report("criterion 1: mean test accuracy >= 0.95 and <= 15 min/seed",
               mean_acc >= 0.95 and worst_time <= 900,
               f"mean={mean_acc:.3f} accs={[round(a, 3) for a in accs]} "
               f"max_train={worst_time:.0f}s")

    def test_criterion_2_ba2motifs_a1(self, ba2_runs):
        a1s = [r["a1"] for r in ba2_runs]
        mean_a1 = float(np.mean(a1s))
        report("criterion 2: mean A1 >= 0.35",
               mean_a1 >= 0.35,
               f"mean={mean_a1:.3f} per-seed={[round(v, 3) for v in a1s]} "
               f"thresholds={[r['p'] for r in ba2_runs]}")

    def test_criterion_4_threshold_sensitivity(self, ba2_runs):
        drifts = [max(abs(v - r["a1"]) for v in r["shifted_a1"].values()) for r in ba2_runs]
        worst = max(drifts)
        per_seed = " ".join(f"seed {r['seed']}: p={r['p']} drift={d:.4f}"
                            for r, d in zip(ba2_runs, drifts))
        # train returns its final parameters: each seed's epochs run, final
        # loss and A1 over the grid show where its threshold landed
        for r in ba2_runs:
            grid = " ".join(f"{p}:{v:.3f}" for p, v in r["grid_a1"].items())
            print(f"  seed {r['seed']}: {r['epochs']} epochs, final loss "
                  f"{r['final_loss']:.3e}, A1 over the grid {grid}")
        report("criterion 4: |A1(p +/- 0.1) - A1(p)| <= 0.15 on every seed",
               worst <= 0.15, f"worst drift={worst:.3f}; {per_seed}")

    def test_criterion_5_explanation_speed(self, ba2_runs):
        slowest = max(r["explain_seconds_per_graph"] for r in ba2_runs)
        report("criterion 5: explanation extraction < 0.1 s per graph",
               slowest < 0.1, f"slowest={slowest * 1000:.1f} ms/graph")


class TestMutag:
    def test_criterion_3_mutag(self):
        candidates = [Path("data/MUTAG")]
        if os.environ.get("XGKN_MUTAG_DIR"):
            candidates.insert(0, Path(os.environ["XGKN_MUTAG_DIR"]))
        directory = next((c for c in candidates if (c / "MUTAG_A.txt").exists()), None)
        if directory is None:
            print("[SKIP] criterion 3: MUTAG inputs absent")
            pytest.skip("MUTAG files not present")
        ds = parse_tu_dataset(str(directory), "MUTAG")
        sidecar = directory / "MUTAG_gt_masks.txt"
        if sidecar.exists():
            ds = load_ground_truth_masks(ds, str(sidecar))
        accs, a1s = [], []
        for seed in SEEDS:
            split = stratified_split(ds, 0.2, 1, seed=seed)[0]
            model = init_model(ModelConfig(**MODEL_CONFIG), ds.feature_dim,
                               ds.num_classes, Rng(seed))
            model, _ = train(model, ds, split, TrainConfig(seed=seed, **TRAIN_CONFIG))
            accs.append(evaluate_accuracy(model, ds, split.test_ids))
            if ds.gt_instance_masks is not None:
                test_ds = ds.subset(split.test_ids)
                selection = select_threshold(model, test_ds, "a1")
                expl = [threshold_explanation(g, node_importance(model, g), selection.p)
                        for g in test_ds.graphs]
                a1s.append(metric_a1(expl, test_ds).value)
        mean_acc = float(np.mean(accs))
        acc_ok = mean_acc >= 0.72
        a1_ok = True
        detail = f"mean_acc={mean_acc:.3f}"
        if a1s:
            mean_a1 = float(np.mean(a1s))
            a1_ok = mean_a1 >= 0.70
            detail += f" mean_a1={mean_a1:.3f}"
        report("criterion 3: MUTAG accuracy >= 0.72 (A1 >= 0.70 when masks given)",
               acc_ok and a1_ok, detail)


# ---------------------------------------------------------------------------
# property-based criteria (no external data)

class TestShapleyProperties:
    def test_criterion_6_efficiency(self):
        rng = Rng(600)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(2, 7))
            model = make_model(m=m, depth=1 + trial % 2, seed=trial,
                               num_classes=2 + trial % 2)
            z = rng.normal(size=m)
            baseline = rng.normal(size=m)
            attr = exact_shapley(model, z, baseline, target_class=trial % 2)
            worst = max(worst, attr.efficiency_gap())
        report("criterion 6: Shapley efficiency gap < 1e-9 on 100 instances",
               worst < 1e-9, f"worst={worst:.2e}")

    def test_criterion_7_conservation(self):
        rng = Rng(700)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(2, 6))
            mode = ("sum", "negative_entropy")[trial % 2]
            model = make_model(m=m, seed=trial, agg=mode)
            n = int(rng.integers(2, 9))
            g = random_graph(n, 0.5, rng.derive("g", trial)).with_features(np.ones((n, 1)))
            fp = forward_batch(model, [g])
            attr = exact_shapley(model, fp.z, model.z_baseline, fp.predicted)
            weights, inactive = propagate_to_nodes(attr, fp, mode)
            skipped = {int(i) for _, i in inactive}
            active_sum = sum(attr.phi[0, i] for i in range(m) if i not in skipped)
            worst = max(worst, abs(weights.sum() - active_sum))
        report("criterion 7: propagation conservation gap < 1e-9 on 100 instances",
               worst < 1e-9, f"worst={worst:.2e}")


class TestKernelProperties:
    def test_criterion_8_kernel_oracles(self):
        rng = Rng(800)
        worst_plain = 0.0
        worst_anchored = 0.0
        worst_stacked = 0.0
        for trial in range(50):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            g1 = random_graph(n1, 0.6, rng.derive("a", trial), d=2, binary_features=True)
            g2 = random_graph(n2, 0.6, rng.derive("b", trial), d=2, binary_features=True)
            s = g1.features @ g2.features.T
            cap = int(rng.integers(0, 4))
            product, _ = direct_product(g1, g2)
            expected = walk_kernel_bruteforce(product.adjacency, s.reshape(-1), cap)
            worst_plain = max(worst_plain, abs(rw_kernel(g1, g2, cap, s) - expected))

            gv = Graph(g1.adjacency, g1.features, g1.node_ids, anchor=0)
            filt = GraphFilter.init(n2, 3, rng.derive("f", trial))
            enc = FeatureEncoder.init(2, 3, rng.derive("e", trial))
            s2 = node_pair_similarity(gv, filt, enc).values
            product2, _ = direct_product(gv, filter_as_graph(filt))
            expected2 = walk_kernel_bruteforce(product2.adjacency, s2.reshape(-1), cap,
                                               start_rows=range(filt.size))
            got2 = anchored_rw_kernel(gv, filt, enc, walk_cap=cap).item()
            worst_anchored = max(worst_anchored, abs(got2 - expected2))
            # the package path, which takes one-hot rows, against the same
            # oracle over one-hot rows: node 0's neighbourhood spans all it
            # can reach
            gh = g1.with_features(np.eye(2)[rng.derive("h", trial).integers(0, 2, size=n1)])
            product3, _ = direct_product(gh, filter_as_graph(filt))
            expected3 = walk_kernel_bruteforce(
                product3.adjacency, node_pair_similarity(gh, filt, enc).values.reshape(-1), cap,
                start_rows=range(filt.size))
            stacked = stack_responses_of(build_subgraph_stack(gh, n1, n1), bank_of([filt]),
                                         enc, walk_cap=cap).values[0, 0]
            worst_stacked = max(worst_stacked, abs(stacked - expected3))
        report("criterion 8: kernels match brute-force walk oracles within 1e-9",
               worst_plain < 1e-9 and worst_anchored < 1e-9 and worst_stacked < 1e-9,
               f"plain={worst_plain:.2e} anchored={worst_anchored:.2e} "
               f"stacked={worst_stacked:.2e}")

    def test_criterion_9_gradient_checks(self):
        # each trainable path is checked at well-conditioned random points:
        # the composite has genuine high-curvature regions (entropy log near
        # zero responses, batch-norm near zero variance) where central
        # differences are meaningless
        from xgkn.model import Predictor, _aggregate_tensor
        rng = Rng(900)
        worst = 0.0
        for trial in range(20):
            # kernel responses through filters and encoder
            n = int(rng.integers(4, 6))
            g = random_graph(n, 0.6, rng.derive("kg", trial), d=2)
            stack = build_subgraph_stack(g, 1, 6)
            bank = bank_of([GraphFilter.init(3, 3, rng.derive("kf", trial, i))
                            for i in range(2)])
            encoder = FeatureEncoder.init(2, 3, rng.derive("ke", trial))
            kernel_params = bank.parameters() + [encoder.weight]

            def kernel_objective():
                r = stack_responses_of(stack, bank, encoder)
                return tsum(r * r)

            worst = max(worst, finite_difference_check(kernel_objective, kernel_params))

            # entropy aggregation on responses bounded away from the clamp
            resp = nk.Tensor(rng.random((5, 3)) + 0.5, requires_grad=True)
            seg = np.array([0, 0, 0, 1, 1])
            weights = nk.Tensor(rng.normal(size=(2, 3)))

            def entropy_objective():
                z, _, _ = _aggregate_tensor(resp, "negative_entropy", 1e-8, seg, 2)
                return tsum(z * weights)

            worst = max(worst, finite_difference_check(entropy_objective, [resp]))

            # batch-norm + linear predictor under cross-entropy
            predictor = Predictor(3, 2, depth=1 + trial % 2, hidden_dim=4,
                                  rng=rng.derive("pp", trial), bn_momentum=0.0)
            scores = nk.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            labels = np.array([0, 1, 0, 1])

            def predictor_objective():
                return nk.cross_entropy(predictor.logits(scores, training=True), labels)

            worst = max(worst, finite_difference_check(
                predictor_objective, predictor.parameters() + [scores]))
        report("criterion 9: all trainable gradients pass FD checks < 1e-4",
               worst < 1e-4, f"worst={worst:.2e}")


class TestGedProperties:
    def test_criterion_10_ged_oracle(self):
        rng = Rng(1000)
        worst = 0.0
        norms_ok = True
        for trial in range(30):
            g1 = random_graph(int(rng.integers(1, 5)), 0.5, rng.derive("x", trial),
                              d=1, binary_features=True)
            g2 = random_graph(int(rng.integers(1, 5)), 0.5, rng.derive("y", trial),
                              d=1, binary_features=True)
            expected = ged_bruteforce(g1.adjacency, g1.features, g2.adjacency, g2.features)
            worst = max(worst, abs(ged_exact(g1, g2) - expected))
            norm = ged_normalized(g1, g2)
            norms_ok = norms_ok and 0.0 <= norm <= 1.0
        report("criterion 10: exact edit distance matches the exhaustive oracle",
               worst < 1e-9 and norms_ok, f"worst={worst:.2e}")


class TestMetricProperties:
    def test_criterion_11_metric_ranges_and_fixed_points(self):
        from xgkn.data import Dataset
        rng = Rng(1100)
        all_in_range = True
        for trial in range(5):
            model = make_model(m=3, seed=trial)
            graphs = tuple(
                with_label(random_graph(6, 0.5, rng.derive(trial, i))
                           .with_features(np.ones((6, 1))), i % 2) for i in range(4))
            masks = tuple(NodeSet((0, 1), root=i) for i in range(4))
            ds = Dataset(graphs=graphs, num_classes=2, gt_instance_masks=masks)
            expl = [threshold_explanation(g, node_importance(model, g), 0.5)
                    for g in ds.graphs]
            cfg = AimConfig(samples_per_graph=3)
            outputs = [metric_a1(expl, ds).value]
            for mode in ("I1", "I2"):
                outputs.append(metric_sufficiency_necessity(
                    model, ds, expl, mode, cfg, rng.derive(mode, trial)).value)
            for mode in ("I3", "I4"):
                outputs.append(metric_robustness(
                    model, ds, expl, mode, cfg, rng.derive(mode, trial)).value)
            for mode in ("M1", "M2"):
                outputs.append(metric_correctness(
                    model, ds, expl, mode, cfg, rng.derive(mode, trial)).value)
            outputs.append(metric_redundancy(score_matrix(model, ds)).value)
            all_in_range = all_in_range and all(0.0 <= v <= 1.0 for v in outputs)

        # duplicated filters -> redundancy exactly 0 after orientation
        model = make_model(m=3, seed=77)
        duplicate_first_filter(model)
        graphs = tuple(with_label(random_graph(6, 0.5, rng.derive("dup", i)).with_features(
            np.ones((6, 1))), 0) for i in range(5))
        ds = Dataset(graphs=graphs, num_classes=2)
        duplicated_zero = metric_redundancy(score_matrix(model, ds)).value == 0.0

        # full-graph explanations -> sufficiency exactly 1 for a deterministic model
        model = make_model(m=2, seed=78)
        expl = [threshold_explanation(g, node_importance(model, g), 0.0)
                for g in ds.graphs]
        full_graph_one = metric_sufficiency_necessity(
            model, ds, expl, "I1", AimConfig(samples_per_graph=4), Rng(79)).value == 1.0

        report("criterion 11: metric ranges, duplicated-filter M3 = 0, full-graph I1 = 1",
               all_in_range and duplicated_zero and full_graph_one,
               f"ranges={all_in_range} dupM3zero={duplicated_zero} fullI1={full_graph_one}")


class TestDeterminism:
    def test_criterion_12_pipeline_byte_determinism(self, tmp_path):
        config = {
            "dataset": {"kind": "ba2motifs", "n_graphs": 12, "seed": 5},
            "model": {"num_filters": 2, "filter_size": 3, "embed_dim": 4,
                      "hop_radius": 1, "max_subgraph_size": 5},
            "train": {"epochs": 3, "batch_size": 12},
            "threshold": {"criterion": "auto", "grid": [0.3, 0.6]},
            "aim": {"samples_per_graph": 2},
            "seeds": [0, 1],
            "out_dir": str(tmp_path / "run"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        digests = []
        for _ in range(2):
            for command in ("prepare", "train", "explain", "evaluate"):
                assert cli_main([command, "-c", str(config_path)]) == 0
            blob = b"".join(
                (tmp_path / "run" / name).read_bytes()
                for name in ("dataset.json", "splits.json", "checkpoint_seed0.json",
                             "checkpoint_seed1.json", "explanations_seed0.jsonl",
                             "explanations_seed1.jsonl", "thresholds.json",
                             "report.json", "report.csv", "radar.csv"))
            digests.append(blob)
        report("criterion 12: two identical pipeline runs are byte-identical",
               digests[0] == digests[1])
