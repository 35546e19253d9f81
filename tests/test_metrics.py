import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn.data import Dataset, cycle_motif, generate_ba2motifs, house_motif
from xgkn.errors import AlignmentError, MissingGroundTruthError, UndefinedMetricError
from xgkn.explainer import Explanation, node_importance, threshold_explanation
from xgkn.graphs import Graph, NodeSet, Rng, iou_nodes
from xgkn.kernel import FilterBank
from xgkn.metrics import (
    AimConfig,
    MetricResult,
    _draw_samples,
    aim_report,
    metric_a1,
    metric_a2,
    metric_consistency,
    metric_correctness,
    metric_redundancy,
    metric_robustness,
    metric_sufficiency_necessity,
)
from xgkn.model import ModelConfig, XgknModel, forward_batch, init_model
from xgkn.numkit import spearman_abs

from conftest import random_graph, with_label
from oracles import (
    correctness_sequential,
    draw_samples_loop,
    explain_graph,
    ged_bruteforce,
    robustness_sequential,
    sufficiency_necessity_sequential,
)
from test_explainer import make_model
from test_kernel import shuffled_graphs


def explanation_for(g, selected_ids, n=None):
    n = n if n is not None else g.n
    importance = np.full(n, 1.0 / n)
    return Explanation(importance=importance,
                       selected=NodeSet(tuple(selected_ids)),
                       threshold=0.5)


def score_matrix(model: XgknModel, ds: Dataset) -> np.ndarray:
    """The graphs x filters score matrix of one batched pass, as evaluate
    passes it to M3."""
    return forward_batch(model, ds.graphs).z


def tiny_dataset(rng, n_graphs=4, n=6):
    graphs = tuple(
        with_label(random_graph(n, 0.5, rng.derive("g", i)).with_features(np.ones((n, 1))), i % 2)
        for i in range(n_graphs))
    masks = tuple(NodeSet((0, 1), root=i) for i in range(n_graphs))
    return Dataset(graphs=graphs, num_classes=2, gt_instance_masks=masks)


def duplicate_first_filter(model: XgknModel) -> None:
    """Give every filter of the bank the parameters of the first."""
    bank = model.bank
    for values in (bank.adjacency_logits, bank.features):
        blocks = bank.blocks(values)
        blocks[1:] = blocks[0]


def marked_node_model() -> XgknModel:
    """Two-class model keyed on the presence of one marked node.

    Nodes carry 2-d features; the single 1-node filter matches the marked
    feature [0, 1] exactly, so the aggregated score counts marked nodes.
    """
    cfg = ModelConfig(num_filters=1, filter_size=1, embed_dim=2, hop_radius=1,
                      max_subgraph_size=4, agg_mode="sum", walk_cap=1)
    model = init_model(cfg, 2, 2, Rng(0))
    model.encoder.weight = np.eye(2)
    model.bank.features = np.array([[0.0, 1.0]])
    model.predictor.gamma = np.ones((1, 1))
    model.predictor.beta = np.zeros((1, 1))
    model.predictor.running_mean = np.array([[0.5]])
    model.predictor.running_var = np.array([[0.25]])
    w, b = model.predictor.layers[0]
    w[...] = [[1.0, -1.0]]
    b[...] = 0.0
    model.z_baseline = np.array([0.5])
    return model


def marked_graph(marked: bool, n=5, seed=0) -> Graph:
    g = random_graph(n, 0.5, Rng(seed), d=1)
    feats = np.tile([1.0, 0.0], (n, 1))
    if marked:
        feats[0] = [0.0, 1.0]
    return Graph(g.adjacency, feats, np.arange(n), label=0 if marked else 1)


class TestMetricA1:
    def test_perfect_match(self, rng):
        ds = tiny_dataset(rng)
        expl = [explanation_for(g, (0, 1)) for g in ds.graphs]
        assert metric_a1(expl, ds).value == 1.0

    def test_disjoint(self, rng):
        ds = tiny_dataset(rng)
        expl = [explanation_for(g, (3, 4)) for g in ds.graphs]
        assert metric_a1(expl, ds).value == 0.0

    def test_empty_masks_excluded_by_default(self, rng):
        graphs = tuple(with_label(random_graph(5, 0.5, rng.derive(i)).with_features(
            np.ones((5, 1))), 0) for i in range(2))
        masks = (NodeSet((0, 1), root=0), NodeSet((), root=1))
        ds = Dataset(graphs=graphs, num_classes=1, gt_instance_masks=masks)
        expl = [explanation_for(g, (0, 1)) for g in ds.graphs]
        res = metric_a1(expl, ds)
        assert res.value == 1.0
        assert res.n_used == 1

    def test_no_masks_rejected(self, rng):
        graphs = (with_label(random_graph(5, 0.5, rng).with_features(np.ones((5, 1))), 0),)
        ds = Dataset(graphs=graphs, num_classes=1)
        with pytest.raises(MissingGroundTruthError):
            metric_a1([explanation_for(graphs[0], (0,))], ds)


class TestMetricA2:
    def test_filter_isomorphic_to_motif_scores_one(self):
        house = house_motif()
        logits = np.where(house.adjacency > 0, 40.0, -40.0)
        np.fill_diagonal(logits, -40.0)
        model = make_model(m=1)
        model.bank = FilterBank(logits, np.ones((5, 4)))
        ds = generate_ba2motifs(4, Rng(0))
        ds = Dataset(graphs=ds.graphs, num_classes=2, gt_motifs=(house,))
        assert metric_a2(model, ds).value == pytest.approx(1.0)

    def test_empty_filters_vs_cycle_hand_value(self):
        model = make_model(m=1)
        model.bank = FilterBank(np.full((6, 6), -40.0), np.ones((6, 4)))
        ds = generate_ba2motifs(4, Rng(0))
        ds = Dataset(graphs=ds.graphs, num_classes=2, gt_motifs=(cycle_motif(5),))
        # edit path: delete 1 spare node, insert the 5 cycle edges -> 6;
        # worst case deletes 6 nodes and inserts 5 + 5 -> 16
        expected_gamma = 6.0 / 16.0
        assert metric_a2(model, ds).value == pytest.approx(1.0 - expected_gamma)

    def test_missing_motifs_rejected(self, rng):
        ds = tiny_dataset(rng)
        with pytest.raises(MissingGroundTruthError):
            metric_a2(make_model(), ds)

    # A2 searches filters in bound order and cuts each search at the best
    # distance so far; the exhaustive oracle takes about 20 ms per pair
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(st.lists(st.lists(st.booleans(), min_size=15, max_size=15),
                    min_size=1, max_size=4))
    def test_equals_bruteforce_minimum_over_filters(self, edge_sets):
        adjacencies = []
        for edges in edge_sets:
            adj = np.zeros((6, 6))
            adj[np.triu_indices(6, 1)] = edges
            adjacencies.append(adj + adj.T)
        model = make_model(m=len(adjacencies))
        model.bank = FilterBank(
            np.vstack([np.where(adj > 0, 40.0, -40.0) for adj in adjacencies]),
            np.ones((6 * len(adjacencies), 4)))
        motifs = (house_motif(), cycle_motif(5))
        ds = Dataset(graphs=generate_ba2motifs(4, Rng(0)).graphs, num_classes=2,
                     gt_motifs=motifs)
        gammas = [min(ged_bruteforce(adj, np.ones((6, 1)), m.adjacency, m.features)
                      / (6 + adj.sum() / 2 + m.n + m.num_edges()) for adj in adjacencies)
                  for m in motifs]
        assert metric_a2(model, ds).value == 1.0 - float(np.mean(gammas))


class TestSufficiencyNecessity:
    def test_full_graph_explanation_gives_sufficiency_one(self, rng):
        model = make_model(seed=3)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explanation_for(g, tuple(range(g.n))) for g in ds.graphs]
        res = metric_sufficiency_necessity(model, ds, expl, "I1", AimConfig(), Rng(5))
        assert res.value == 1.0

    def test_constant_model_gives_necessity_zero(self, rng):
        model = make_model(seed=4)
        w, b = model.predictor.layers[0]
        w[...] = 0.0
        b[...] = [[1.0, 0.0]]
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explanation_for(g, (0,)) for g in ds.graphs]
        res = metric_sufficiency_necessity(model, ds, expl, "I2", AimConfig(), Rng(6))
        assert res.value == 0.0

    @pytest.mark.parametrize("mode", ["I1", "I2"])
    def test_no_graphs_give_an_invalid_result(self, mode):
        res = metric_sufficiency_necessity(make_model(), Dataset(graphs=(), num_classes=2), [],
                                           mode, AimConfig(), Rng(9))
        assert (res.valid, res.n_used, res.n_skipped) == (False, 0, 0)

    def test_marked_node_model_exhaustive(self):
        model = marked_node_model()
        graphs = tuple(marked_graph(True, seed=i) for i in range(3))
        ds = Dataset(graphs=graphs, num_classes=2)
        expl = [explanation_for(g, (0,)) for g in ds.graphs]
        cfg = AimConfig(samples_per_graph=20)
        i1 = metric_sufficiency_necessity(model, ds, expl, "I1", cfg, Rng(7))
        i2 = metric_sufficiency_necessity(model, ds, expl, "I2", cfg, Rng(8))
        assert i1.value == 1.0
        assert i2.value == 1.0

    def test_deterministic_under_seed(self, rng):
        model = make_model(seed=5)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explanation_for(g, (0, 1)) for g in ds.graphs]
        a = metric_sufficiency_necessity(model, ds, expl, "I1", AimConfig(), Rng(9))
        b = metric_sufficiency_necessity(model, ds, expl, "I1", AimConfig(), Rng(9))
        assert a == b


class TestRobustness:
    def test_feature_invariant_dataset_scores_one(self, rng):
        # constant features: the resampling pool holds one distinct row, so
        # perturbation cannot change anything
        model = make_model(seed=6)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        res = metric_robustness(model, ds, expl, "I3", AimConfig(), Rng(10))
        assert res.value == 1.0

    def test_edge_mode_matches_direct_replay(self, rng):
        model = make_model(seed=7)
        ds = tiny_dataset(rng, n_graphs=3)
        cfg = AimConfig()
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        res = metric_robustness(model, ds, expl, "I4", cfg, Rng(11))

        # independent replay of the definition with the same stream layout
        from xgkn.graphs import perturb_edges
        from xgkn.metrics import _explanation_edges
        delta_add = cfg.resolve_edge_add(ds)
        values, skipped = [], 0
        for gi, g in enumerate(ds.graphs):
            g_rng = Rng(11).derive("I4", gi)
            predicted = forward_batch(model, [g]).predicted[0]
            accepted = None
            for _ in range(cfg.max_retries):
                cand = perturb_edges(g, delta_add, cfg.delta_edge_remove, g_rng,
                                     protected=_explanation_edges(g, expl[gi].selected))
                if forward_batch(model, [cand]).predicted[0] == predicted:
                    accepted = cand
                    break
            if accepted is None:
                skipped += 1
                continue
            new = threshold_explanation(accepted, node_importance(model, accepted),
                                        expl[gi].threshold)
            values.append(iou_nodes(new.selected, expl[gi].selected))
        assert res.value == pytest.approx(float(np.mean(values)))
        assert res.n_skipped == skipped

    def test_range_and_determinism(self, rng):
        model = make_model(seed=8)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        a = metric_robustness(model, ds, expl, "I3", AimConfig(), Rng(12))
        b = metric_robustness(model, ds, expl, "I3", AimConfig(), Rng(12))
        assert a == b
        assert 0.0 <= a.value <= 1.0


class TestConsistency:
    def test_identical_runs(self, rng):
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explanation_for(g, (0, 1)) for g in ds.graphs]
        assert metric_consistency(expl, list(expl)).value == 1.0

    def test_complementary_runs(self, rng):
        ds = tiny_dataset(rng, n_graphs=3)
        a = [explanation_for(g, (0, 1, 2)) for g in ds.graphs]
        b = [explanation_for(g, (3, 4, 5)) for g in ds.graphs]
        assert metric_consistency(a, b).value == 0.0

    def test_mismatched_lengths_rejected(self, rng):
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explanation_for(g, (0,)) for g in ds.graphs]
        with pytest.raises(AlignmentError):
            metric_consistency(expl, expl[:-1])


class TestCorrectness:
    def test_tiny_delta_reports_zero(self, rng):
        model = make_model(seed=9)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        cfg = AimConfig(delta_filter_features=1e-9, delta_filter_edges=1e-9)
        for mode in ("M1", "M2"):
            res = metric_correctness(model, ds, expl, mode, cfg, Rng(13))
            assert res.value == 0.0

    def test_score_blind_predictor_reports_zero(self, rng):
        model = make_model(seed=10)
        w, b = model.predictor.layers[0]
        w[...] = 0.0
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        res = metric_correctness(model, ds, expl, "M2",
                                 AimConfig(delta_filter_edges=0.9), Rng(14))
        assert res.value == 0.0

    def test_matches_direct_replay(self, rng):
        model = make_model(seed=11)
        ds = tiny_dataset(rng, n_graphs=3)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        cfg = AimConfig(delta_filter_edges=0.9)
        res = metric_correctness(model, ds, expl, "M2", cfg, Rng(15))

        from xgkn.model import perturb_filters
        perturbed = perturb_filters(model, "edges", cfg.delta_filter_edges, Rng(15))
        overlaps = []
        for gi, g in enumerate(ds.graphs):
            new = threshold_explanation(g, node_importance(perturbed, g),
                                        expl[gi].threshold)
            overlaps.append(iou_nodes(new.selected, expl[gi].selected))
        assert res.value == pytest.approx(1.0 - float(np.mean(overlaps)))


class TestRedundancy:
    def test_duplicated_filters_report_exactly_zero(self, rng):
        model = make_model(m=3, seed=12)
        duplicate_first_filter(model)
        ds = tiny_dataset(rng, n_graphs=6)
        res = metric_redundancy(score_matrix(model, ds))
        assert res.value == 0.0

    def test_mixed_fixture_matches_hand_computation(self, rng):
        model = make_model(m=3, seed=13)
        ds = tiny_dataset(rng, n_graphs=6)
        res = metric_redundancy(score_matrix(model, ds))
        streams = np.vstack([forward_batch(model, [g]).z[0] for g in ds.graphs])
        pairs = [spearman_abs(streams[:, i], streams[:, j])
                 for i in range(3) for j in range(i + 1, 3)]
        assert res.value == pytest.approx(1.0 - float(np.mean(pairs)))

    def test_single_filter_rejected(self, rng):
        model = make_model(m=1, seed=14)
        with pytest.raises(UndefinedMetricError):
            metric_redundancy(score_matrix(model, tiny_dataset(rng, n_graphs=3)))


class TestMetricResult:
    def test_out_of_range_rejected(self):
        with pytest.raises(UndefinedMetricError):
            MetricResult(name="X", value=1.5, n_used=1)

    def test_majority_skips_flag_invalid(self):
        from xgkn.metrics import _result
        res = _result("X", [1.0], n_skipped=5, intended=6)
        assert not res.valid


class TestAimReport:
    def test_single_seed_std_zero(self):
        report = aim_report({"A1": [0.5]})
        assert report.metrics["A1"].std == 0.0

    def test_known_fixture_sample_std(self):
        report = aim_report({"A1": [0.4, 0.5, 0.6]})
        assert report.metrics["A1"].mean == pytest.approx(0.5)
        assert report.metrics["A1"].std == pytest.approx(0.1)

    def test_identical_runs_compare_with_p_one(self):
        ours = {"A1": [0.4, 0.5, 0.6], "I1": [0.9, 0.8, 0.85]}
        report = aim_report(ours, comparisons={"other": ours})
        assert report.ttests
        for row in report.ttests:
            assert row["p_value"] == pytest.approx(1.0)
            assert not row["significant"]

    def test_radar_series_order(self):
        values = {name: [0.5] for name in
                  ("M3", "A1", "I2", "I1", "A2", "I3", "I5", "I4", "M1", "M2")}
        report = aim_report(values)
        assert [name for name, _ in report.radar_series()] == [
            "A1", "A2", "I1", "I2", "I3", "I4", "I5", "M1", "M2", "M3"]

    def test_degenerate_variance_compare(self):
        report = aim_report({"A1": [0.5, 0.5]},
                            comparisons={"other": {"A1": [0.5, 0.5]}})
        assert report.ttests[0]["p_value"] == 1.0


class TestDrawSamples:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(shuffled_graphs(), min_size=1, max_size=3), st.data(),
           st.sampled_from(["I1", "I2"]), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2**32 - 1))
    def test_equals_id_loop(self, graphs, data, mode, samples, retries, inclusion, seed):
        # position masks against the id lists they replace: the same samples,
        # skips and draws, for any ids and any explanation, empty or whole
        # (retries start at 1: AimConfig refuses max_retries 0)
        explanations = []
        for g in graphs:
            ids = g.node_ids.tolist()
            selected = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)))
            explanations.append(Explanation(importance=np.zeros(g.n),
                                            selected=NodeSet(tuple(set(selected))),
                                            threshold=0.5))
        cfg = AimConfig(samples_per_graph=samples, max_retries=retries,
                        inclusion_probability=inclusion)
        streams = [Rng(seed).derive(gi) for gi in range(len(graphs))]
        got, skipped = _draw_samples(graphs, explanations, mode, cfg, streams)
        want, want_skipped, parent_of = [], 0, []
        for gi, (g, explanation) in enumerate(zip(graphs, explanations)):
            loop_rng = Rng(seed).derive(gi)
            subgraphs, n_skipped = draw_samples_loop(g, explanation, mode, cfg, loop_rng)
            want += [sub.node_ids.tolist() for sub in subgraphs]
            want_skipped += n_skipped
            parent_of += [gi] * len(subgraphs)
            assert streams[gi].random() == loop_rng.random()
        assert skipped == want_skipped and got.parent_of.tolist() == parent_of
        assert [graphs[gi].node_ids[got.positions[lo:hi]].tolist()
                for gi, lo, hi in zip(parent_of, got.bounds, got.bounds[1:])] == want


# I3/I4 perturbations that some graphs reject more than once
RETRYING = AimConfig(delta_feature_robustness=0.6, delta_edge_remove=0.6, delta_edge_add=0.4,
                     max_retries=3)


class TestBatchedMatchesSequential:
    """The batched metrics against the per-graph loops they replaced; 30
    graphs and their samples span several inference chunks."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = Rng(2024)
        graphs = []
        for i in range(30):
            g = random_graph(4 + i % 6, 0.45, rng.derive("g", i))
            if i % 2:
                g = g.with_features(np.tile(np.eye(2)[0], (g.n, 1)))
            graphs.append(with_label(g, i % 2))
        ds = Dataset(graphs=tuple(graphs), num_classes=2)
        # this model predicts both classes here, and with the retrying config
        # below some graphs need a second or third perturbation and some are
        # skipped, so the batched retry rounds are compared where they run
        model = make_model(seed=51, feature_dim=2)
        expl = [explain_graph(model, g, 0.5) for g in ds.graphs]
        assert set(forward_batch(model, ds.graphs).predicted.tolist()) == {0, 1}
        for mode in ("I3", "I4"):
            assert metric_robustness(model, ds, expl, mode, RETRYING, Rng(32),
                                     feature_pool=np.eye(2)[[1, 0, 1]]).n_skipped >= 1
        return model, ds, expl

    @pytest.mark.parametrize("mode", ["I1", "I2"])
    @pytest.mark.parametrize("cfg", [AimConfig(samples_per_graph=4),
                                     AimConfig(samples_per_graph=3, max_retries=1,
                                               inclusion_probability=0.1)])
    def test_sufficiency_necessity(self, setup, mode, cfg):
        model, ds, expl = setup
        assert (metric_sufficiency_necessity(model, ds, expl, mode, cfg, Rng(31))
                == sufficiency_necessity_sequential(model, ds, expl, mode, cfg, Rng(31)))
        # the graphs' classes scored beforehand, as explain and evaluate pass them
        predicted = [forward_batch(model, [g]).predicted[0] for g in ds.graphs]
        assert (metric_sufficiency_necessity(model, ds, expl, mode, cfg, Rng(31), predicted)
                == sufficiency_necessity_sequential(model, ds, expl, mode, cfg, Rng(31)))

    @pytest.mark.parametrize("mode", ["I3", "I4"])
    @pytest.mark.parametrize("cfg", [AimConfig(), RETRYING])
    def test_robustness(self, setup, mode, cfg):
        model, ds, expl = setup
        pool = np.eye(2)[[1, 0, 1]]
        assert (metric_robustness(model, ds, expl, mode, cfg, Rng(32), feature_pool=pool)
                == robustness_sequential(model, ds, expl, mode, cfg, Rng(32),
                                         feature_pool=pool))
        predicted = [forward_batch(model, [g]).predicted[0] for g in ds.graphs]
        assert (metric_robustness(model, ds, expl, mode, cfg, Rng(32), feature_pool=pool,
                                  predicted=predicted)
                == robustness_sequential(model, ds, expl, mode, cfg, Rng(32),
                                         feature_pool=pool))

    @pytest.mark.parametrize("mode", ["I1", "I2"])
    def test_samples_are_never_built_as_graphs(self, setup, mode, monkeypatch):
        # the samples reach the forward pass as positions of their graphs: no
        # Graph is constructed, checked or derived for any of them
        model, ds, expl = setup
        predicted = forward_batch(model, ds.graphs).predicted.tolist()
        built = []
        for name in ("__post_init__", "_derived"):
            original = getattr(Graph, name)
            monkeypatch.setattr(Graph, name, lambda self, *args, _original=original, **kwargs:
                                built.append(self) or _original(self, *args, **kwargs))
        result = metric_sufficiency_necessity(model, ds, expl, mode,
                                              AimConfig(samples_per_graph=4), Rng(35), predicted)
        assert result.n_used == len(ds.graphs) and built == []

    def test_predicted_classes_must_cover_every_graph(self, setup):
        model, ds, expl = setup
        with pytest.raises(AlignmentError):
            metric_sufficiency_necessity(model, ds, expl, "I1", AimConfig(), Rng(34), [0])
        with pytest.raises(AlignmentError):
            metric_robustness(model, ds, expl, "I3", AimConfig(), Rng(34), predicted=[0])

    @pytest.mark.parametrize("mode", ["M1", "M2"])
    def test_correctness(self, setup, mode):
        model, ds, expl = setup
        cfg = AimConfig(delta_filter_features=0.3, delta_filter_edges=0.3)
        assert (metric_correctness(model, ds, expl, mode, cfg, Rng(33))
                == correctness_sequential(model, ds, expl, mode, cfg, Rng(33)))

    def test_redundancy(self, setup):
        model, ds, _ = setup
        streams = np.vstack([forward_batch(model, [g]).z[0] for g in ds.graphs])
        pairs = [spearman_abs(streams[:, i], streams[:, j])
                 for i in range(model.num_filters) for j in range(i + 1, model.num_filters)]
        assert metric_redundancy(score_matrix(model, ds)).value == 1.0 - float(np.mean(pairs))
