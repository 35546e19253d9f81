import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn.data import Dataset
from xgkn.errors import CapacityError, MissingGroundTruthError, ShapeError
from xgkn.explainer import (
    Attribution,
    criterion_score,
    enumerated_shapley,
    exact_shapley,
    explanation_record,
    node_importance,
    node_importances,
    propagate_to_nodes,
    read_explanations,
    select_threshold,
    threshold_explanation,
    threshold_explanations,
    write_explanations,
)
from xgkn.graphs import Graph, NodeSet, Rng
from xgkn.model import ForwardPass, ModelConfig, forward_batch, init_model

from conftest import cycle_graph, random_graph, with_label
from oracles import explain_graph, shapley_permutation_oracle, threshold_selection_loop
from test_kernel import shuffled_graphs


def make_model(m=4, depth=1, seed=0, num_classes=2, agg="negative_entropy", feature_dim=1):
    cfg = ModelConfig(num_filters=m, filter_size=3, embed_dim=4, hop_radius=1,
                      max_subgraph_size=6, predictor_depth=depth, agg_mode=agg)
    model = init_model(cfg, feature_dim, num_classes, Rng(seed))
    model.z_baseline = Rng(seed).derive("bl").normal(size=m)
    return model


def game_fn(model, z, baseline, target):
    def value(coalition):
        mixed = np.array([z[i] if i in coalition else baseline[i] for i in range(len(z))])
        return model.predictor.logits(mixed.reshape(1, -1))[0, target]
    return value


class TestExactShapley:
    def test_linear_predictor_closed_form(self):
        model = make_model(m=3, depth=1, seed=1)
        rng = Rng(2)
        z = rng.normal(size=3)
        baseline = rng.normal(size=3)
        attr = exact_shapley(model, z, baseline, target_class=1)
        # the frozen batch-norm + linear head is affine, so the Shapley value
        # of coordinate i is its effective weight times (z_i - baseline_i)
        pred = model.predictor
        scale = (pred.gamma / np.sqrt(pred.running_var + pred.bn_eps)).reshape(-1)
        w_eff = scale * pred.layers[0][0][:, 1]
        assert np.allclose(attr.phi, w_eff * (z - baseline), atol=1e-9)

    def test_baseline_input_gives_zero_attributions(self):
        model = make_model(m=4, seed=3)
        baseline = Rng(4).normal(size=4)
        attr = exact_shapley(model, baseline, baseline, target_class=0)
        assert np.allclose(attr.phi, 0.0, atol=1e-12)
        assert attr.phi0 == pytest.approx(attr.target_logit)

    def test_matches_permutation_oracle_on_mlp(self):
        model = make_model(m=4, depth=2, seed=5)
        rng = Rng(6)
        z = rng.normal(size=4)
        baseline = rng.normal(size=4)
        attr = exact_shapley(model, z, baseline, target_class=1)
        expected = shapley_permutation_oracle(game_fn(model, z, baseline, 1), 4)
        assert np.allclose(attr.phi, expected, atol=1e-9)

    def test_efficiency_on_random_instances(self):
        rng = Rng(7)
        for trial in range(20):
            m = int(rng.integers(2, 6))
            model = make_model(m=m, depth=1 + trial % 2, seed=trial)
            z = rng.normal(size=m)
            baseline = rng.normal(size=m)
            attr = exact_shapley(model, z, baseline, target_class=trial % 2)
            assert attr.efficiency_gap() < 1e-9

    def test_capacity_cap(self):
        # the cap holds for the depth-2 enumeration only
        with pytest.raises(CapacityError):
            exact_shapley(make_model(m=21, depth=2), np.zeros(21), np.zeros(21), 0)
        # the depth-1 closed form needs no coalitions
        z = Rng(8).normal(size=(3, 40))
        attr = exact_shapley(make_model(m=40), z, np.zeros(40), [0, 1, 0])
        assert attr.phi.shape == (3, 40) and attr.efficiency_gap() < 1e-12

    def test_null_concept_gets_zero_attribution(self):
        # a coordinate equal to its baseline never changes any coalition
        model = make_model(m=3, seed=21)
        rng = Rng(22)
        z = rng.normal(size=3)
        baseline = rng.normal(size=3)
        baseline[1] = z[1]
        attr = exact_shapley(model, z, baseline, target_class=0)
        assert attr.phi[0, 1] == 0.0

    @pytest.mark.parametrize("depth", [1, 2])
    def test_target_logit_is_the_trace_logit(self, rng, depth):
        # the full coalition is one row among 2^m; inference products are
        # row-local, so it scores as the trace's batch did
        model = make_model(m=8, depth=depth, seed=23)
        graphs = [random_graph(3 + i, 0.5, rng.derive("g", i)).with_features(np.ones((3 + i, 1)))
                  for i in range(6)]
        fp = forward_batch(model, graphs)
        attr = exact_shapley(model, fp.z, model.z_baseline, fp.predicted)
        assert np.array_equal(attr.target_logit, fp.logits[np.arange(6), fp.predicted])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 9), st.integers(1, 5), st.integers(2, 4), st.integers(0, 10 ** 6),
           st.booleans())
    def test_closed_form_equals_the_enumeration(self, m, rows, classes, seed, at_baseline):
        # the depth-1 closed form against the 2^m enumeration it replaces, on
        # trained-looking batch-norm statistics and some coordinates at the
        # baseline
        model = make_model(m=m, seed=seed % 97, num_classes=classes)
        draws = np.random.default_rng(seed)
        pred = model.predictor
        pred.running_mean = draws.normal(size=(1, m))
        pred.running_var = draws.uniform(0.01, 4.0, size=(1, m))
        pred.gamma = draws.normal(size=(1, m))
        pred.beta = draws.normal(size=(1, m))
        baseline = draws.normal(size=m)
        z = draws.normal(size=(rows, m)) * 3.0
        if at_baseline:
            z[:, ::2] = baseline[::2]
        target = draws.integers(0, classes, size=rows)
        attr = exact_shapley(model, z, baseline, target)
        assert attr.efficiency_gap() <= 1e-12
        for row, c, phi in zip(z, target, attr.phi):
            want = enumerated_shapley(pred, row, baseline, int(c))
            assert np.allclose(phi, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=1.0))

    def test_rows_of_a_batch_equal_their_batch_of_one(self):
        for depth in (1, 2):
            model = make_model(m=5, depth=depth, seed=30 + depth, num_classes=3)
            draws = np.random.default_rng(depth)
            z = draws.normal(size=(7, 5))
            target = draws.integers(0, 3, size=7)
            batch = exact_shapley(model, z, model.z_baseline, target)
            for i in range(7):
                one = exact_shapley(model, z[i], model.z_baseline, target[i])
                assert batch.phi[i].tobytes() == one.phi[0].tobytes()
                assert batch.phi0[i] == one.phi0[0]
                assert batch.target_logit[i] == one.target_logit[0]


class TestPropagate:
    def trace_for(self, contributions, z, argmax_rows=None):
        """The pass of one graph with these rows and scores."""
        return ForwardPass(R=contributions, contributions=contributions,
                           z=np.reshape(z, (1, -1)), logits=np.array([[1.0, 0.0]]),
                           bounds=np.array([0, len(contributions)]),
                           argmax_rows=None if argmax_rows is None else argmax_rows[None])

    @staticmethod
    def attribution(phi0, phi, target_logit):
        return Attribution(phi0=np.array([phi0]), phi=np.reshape(phi, (1, -1)),
                           target_logit=np.array([target_logit]), target_class=np.array([0]))

    def test_single_carrier(self):
        attr = self.attribution(0.5, np.array([0.25, 0.25]), 1.0)
        trace = self.trace_for(np.array([[2.0, 3.0]]), np.array([2.0, 3.0]))
        w, inactive = propagate_to_nodes(attr, trace, "sum")
        assert w == pytest.approx([0.5])
        assert len(inactive) == 0

    def test_uniform_columns_spread_evenly(self):
        n = 4
        z = np.array([2.0, -1.0])
        contributions = np.vstack([z / n] * n)
        attr = self.attribution(0.1, np.array([0.6, 0.3]), 1.0)
        w, _ = propagate_to_nodes(attr, self.trace_for(contributions, z), "sum")
        assert np.allclose(w, (attr.phi.sum()) / n)

    def test_random_trace_conservation_and_expansion(self, rng):
        for trial in range(10):
            contributions = rng.normal(size=(4, 3)) + 2.0
            z = contributions.sum(axis=0)
            phi = rng.normal(size=3)
            attr = self.attribution(0.0, phi, float(phi.sum()))
            w, inactive = propagate_to_nodes(attr, self.trace_for(contributions, z), "sum")
            assert len(inactive) == 0
            assert w.sum() == pytest.approx(phi.sum(), abs=1e-9)
            expected = sum(phi[i] * contributions[:, i] / z[i] for i in range(3))
            assert np.allclose(w, expected, atol=1e-12)

    def test_zero_score_column_is_flagged_and_skipped(self):
        contributions = np.array([[1.0, 0.0], [1.0, 0.0]])
        z = np.array([2.0, 0.0])
        attr = self.attribution(0.0, np.array([1.0, 5.0]), 6.0)
        w, inactive = propagate_to_nodes(attr, self.trace_for(contributions, z), "sum")
        assert inactive.tolist() == [[0, 1]]
        assert w.sum() == pytest.approx(1.0)

    def test_max_mode_routes_to_argmax_rows(self):
        contributions = np.array([[5.0, 0.0], [0.0, 3.0]])
        z = np.array([5.0, 3.0])
        attr = self.attribution(0.0, np.array([0.7, 0.2]), 0.9)
        trace = self.trace_for(contributions, z, argmax_rows=np.array([0, 1]))
        w, _ = propagate_to_nodes(attr, trace, "max")
        assert np.allclose(w, [0.7, 0.2])

    @pytest.mark.parametrize("mode", ["sum", "negative_entropy", "max"])
    def test_a_pass_propagates_as_its_graphs_alone(self, rng, mode):
        # one masked product over the pass's rows, bit for bit the per-graph
        # concept-by-concept sum
        model = make_model(m=5, seed=12, agg=mode, feature_dim=2)
        graphs = [random_graph(1 + i % 6, 0.5, rng.derive("pp", i)) for i in range(9)]
        fp = forward_batch(model, graphs)
        phi = rng.normal(size=(9, 5))
        attr = Attribution(phi0=np.zeros(9), phi=phi, target_logit=phi.sum(axis=1),
                           target_class=np.zeros(9, dtype=np.int64))
        w, inactive = propagate_to_nodes(attr, fp, mode)
        for i, g in enumerate(graphs):
            rows = slice(fp.bounds[i], fp.bounds[i + 1])
            want = np.zeros(g.n)
            for c in range(5):
                if mode == "max":
                    want[fp.argmax_rows[i, c] - fp.bounds[i]] += phi[i, c]
                elif abs(fp.z[i, c]) > 1e-12:
                    want += phi[i, c] * fp.contributions[rows, c] / fp.z[i, c]
            assert w[rows].tobytes() == want.tobytes()


class TestNodeImportance:
    def test_uniform_on_vertex_transitive_graph(self):
        model = make_model(seed=1)
        importance = node_importance(model, with_label(cycle_graph(6), 0))
        assert np.allclose(importance, 1.0 / 6.0, atol=1e-9)

    def test_single_node_graph(self):
        model = make_model(seed=2)
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1), label=0)
        assert node_importance(model, g) == pytest.approx([1.0])

    def test_sums_to_one(self, rng):
        model = make_model(seed=3)
        for trial in range(5):
            g = random_graph(7, 0.4, rng.derive(trial)).with_features(np.ones((7, 1)))
            importance = node_importance(model, g)
            assert importance.sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self, rng):
        model = make_model(seed=4)
        g = random_graph(7, 0.5, rng.derive("pe")).with_features(np.ones((7, 1)))
        order = rng.permutation(7)
        permuted = Graph(g.adjacency[np.ix_(order, order)], g.features[order],
                         np.arange(7))
        a = node_importance(model, g)
        b = node_importance(model, permuted)
        assert np.allclose(b, a[order], atol=1e-9)

    def test_deterministic(self, rng):
        model = make_model(seed=5)
        g = random_graph(6, 0.5, rng.derive("det")).with_features(np.ones((6, 1)))
        a = node_importance(model, g)
        b = node_importance(model, g)
        assert np.array_equal(a, b)


    def test_batched_maps_equal_one_graph_maps(self, rng):
        model = make_model(seed=6, feature_dim=2)
        graphs = [random_graph(3 + i % 7, 0.4, rng.derive("batch", i)) for i in range(40)]
        for g, importance in zip(graphs, node_importances(model, graphs)):
            assert np.allclose(importance, node_importance(model, g), rtol=0.0, atol=1e-15)


class TestThresholdExplanation:
    def test_zero_threshold_selects_all(self):
        g = cycle_graph(4)
        expl = threshold_explanation(g, np.array([0.4, 0.3, 0.2, 0.1]), 0.0)
        assert expl.selected.ids == (0, 1, 2, 3)

    def test_uniform_importance_selects_all(self):
        g = cycle_graph(10)
        expl = threshold_explanation(g, np.full(10, 0.1), 0.5)
        assert len(expl.selected) == 10

    def test_hand_walkthrough(self):
        g = cycle_graph(3)
        expl = threshold_explanation(g, np.array([0.7, 0.2, 0.1]), 0.25)
        assert expl.selected.ids == (0, 1)

    def test_boundary_ties_all_selected(self):
        g = cycle_graph(4)
        expl = threshold_explanation(g, np.array([0.2, 0.2, 0.2, 0.4]), 0.25)
        # prefix holds one 0.2 node, but its two ties must also be selected
        assert expl.selected.ids == (0, 1, 2, 3)

    # few distinct values make tie groups; maps are used raw and normalised
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(shuffled_graphs(), st.data(), st.booleans(),
           st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.3, 0.5, 0.7]), st.floats(0.0, 1.0)))
    def test_equals_running_sum_loop(self, g, data, normalise, p):
        importance = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0]),
            min_size=g.n, max_size=g.n)))
        if normalise and importance.sum() > 0:
            importance = importance / importance.sum()
        expl = threshold_explanation(g, importance, p)
        assert expl.selected.ids == threshold_selection_loop(g, importance, p)

    # one batch over graphs of different sizes, one-node graphs among them;
    # tie groups (0.2 + 5e-13 ties 0.2 within the 1e-12 rule), p = 0 and
    # p = 1, one threshold or one per graph, shuffled node ids
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(shuffled_graphs(max_nodes=8), min_size=1, max_size=6), st.data(),
           st.booleans(), st.booleans())
    def test_batch_equals_running_sum_loop(self, graphs, data, normalise, per_graph):
        thresholds = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.5]), st.floats(0.0, 1.0))
        importances = []
        for g in graphs:
            importance = np.array(data.draw(st.lists(
                st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.2 + 5e-13, 0.25, 1 / 3, 0.5, 1.0]),
                min_size=g.n, max_size=g.n)))
            if normalise and importance.sum() > 0:
                importance = importance / importance.sum()
            importances.append(importance)
        if per_graph:
            p = data.draw(st.lists(thresholds, min_size=len(graphs), max_size=len(graphs)))
            ps = p
        else:
            p = data.draw(thresholds)
            ps = [p] * len(graphs)
        batch = threshold_explanations(graphs, importances, p)
        assert len(batch) == len(graphs)
        for g, importance, p_g, expl in zip(graphs, importances, ps, batch):
            assert expl.selected.ids == threshold_selection_loop(g, importance, p_g)
            assert expl.importance.tobytes() == importance.tobytes()
            assert expl.threshold == p_g

    def test_batch_checks_its_arguments(self):
        g = cycle_graph(3)
        assert threshold_explanations([], [], 0.5) == []
        with pytest.raises(ShapeError):
            threshold_explanations([g, g], [np.full(3, 1 / 3)], 0.5)
        with pytest.raises(ShapeError):
            threshold_explanations([g], [np.full(4, 0.25)], 0.5)
        with pytest.raises(ShapeError):
            threshold_explanations([g, g], [np.full(3, 1 / 3)] * 2, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            threshold_explanations([g], [np.full(3, 1 / 3)], 1.5)
        with pytest.raises(ValueError):
            threshold_explanations([g, g], [np.full(3, 1 / 3)] * 2, [0.5, float("nan")])

    def test_never_empty_across_random_maps(self, rng):
        g = cycle_graph(6)
        for trial in range(20):
            raw = rng.random(6) + 1e-6
            importance = raw / raw.sum()
            for p in (0.1, 0.5, 0.9, 1.0):
                expl = threshold_explanation(g, importance, p)
                assert len(expl.selected) >= 1

    def test_relabeling_preserves_selection(self):
        adj = cycle_graph(4).adjacency
        importance = np.array([0.4, 0.3, 0.2, 0.1])
        g1 = Graph(adj, np.ones((4, 1)), np.array([0, 1, 2, 3]))
        g2 = Graph(adj, np.ones((4, 1)), np.array([10, 20, 30, 40]))
        e1 = threshold_explanation(g1, importance, 0.25)
        e2 = threshold_explanation(g2, importance, 0.25)
        mapping = {0: 10, 1: 20, 2: 30, 3: 40}
        assert tuple(mapping[i] for i in e1.selected.ids) == e2.selected.ids


class TestSelectThreshold:
    def test_single_point_grid(self, rng):
        model = make_model(seed=6)
        graphs = tuple(with_label(random_graph(6, 0.5, rng.derive(i))
                                  .with_features(np.ones((6, 1))), 0) for i in range(3))
        masks = tuple(NodeSet((0, 1), root=i) for i in range(3))
        ds = Dataset(graphs=graphs, num_classes=1, gt_instance_masks=masks)
        sel = select_threshold(model, ds, "a1", grid=(0.3,))
        assert sel.p == 0.3

    def test_recovers_perfect_threshold_on_constructed_fixture(self, rng):
        model = make_model(seed=7)
        graphs = []
        masks = []
        for i in range(4):
            g = with_label(random_graph(6, 0.5, rng.derive("fix", i)).with_features(
                np.ones((6, 1))), 0)
            importance = node_importance(model, g)
            top2 = np.argsort(importance)[-2:]
            graphs.append(g)
            masks.append(NodeSet(tuple(int(v) for v in top2), root=i))
        ds = Dataset(graphs=tuple(graphs), num_classes=1,
                     gt_instance_masks=tuple(masks))
        sel = select_threshold(model, ds, "a1")
        assert max(sel.scores.values()) == sel.scores[sel.p]
        ties = [p for p, s in sel.scores.items() if s >= sel.scores[sel.p]]
        assert sel.p == min(ties)

    def test_missing_masks_rejected(self, rng):
        model = make_model(seed=8)
        graphs = (with_label(random_graph(5, 0.5, rng.derive("nm")).with_features(
            np.ones((5, 1))), 0),)
        ds = Dataset(graphs=graphs, num_classes=1)
        with pytest.raises(MissingGroundTruthError):
            select_threshold(model, ds, "a1")

    def test_precomputed_classes_leave_i1_i2_scores_unchanged(self, rng):
        model = make_model(seed=10, feature_dim=2)
        graphs = tuple(with_label(random_graph(5 + i % 3, 0.5, rng.derive("pc", i)), i % 2)
                       for i in range(6))
        ds = Dataset(graphs=graphs, num_classes=2)
        importances = node_importances(model, ds.graphs)
        predicted = [forward_batch(model, [g]).predicted[0] for g in ds.graphs]
        sel = select_threshold(model, ds, "i1+i2", grid=(0.3, 0.7), rng=Rng(4),
                               importances=importances)
        assert select_threshold(model, ds, "i1+i2", grid=(0.3, 0.7), rng=Rng(4),
                                importances=importances, predicted=predicted) == sel

    def test_every_point_of_the_percent_lattice_gets_its_own_streams(self, rng,
                                                                      monkeypatch):
        # int(p * 100) mapped 0.29 to 28 and 0.57 to 56, so neighbouring grid
        # points shared their Monte-Carlo samples
        from xgkn import metrics
        streams = {"I1": set(), "I2": set()}

        def record(model, ds, explanations, mode, cfg, rng, predicted=None):
            streams[mode].add(rng.stream)
            return metrics.MetricResult(name=mode, value=0.5, n_used=1)

        monkeypatch.setattr(metrics, "metric_sufficiency_necessity", record)
        model = make_model(seed=9)
        g = random_graph(5, 0.5, rng.derive("lattice")).with_features(np.ones((5, 1)))
        ds = Dataset(graphs=(with_label(g, 0),), num_classes=2)
        importances = [node_importance(model, ds.graphs[0])]
        lattice = [i / 100 for i in range(101)]
        for p in lattice:
            criterion_score(model, ds, importances, p, "i1+i2", rng=Rng(3))
        assert len(streams["I1"]) == len(streams["I2"]) == len(lattice)


class TestExplanationExport:
    def test_round_trip(self, tmp_path, rng):
        model = make_model(seed=9)
        g = random_graph(5, 0.5, rng.derive("exp")).with_features(np.ones((5, 1)))
        expl = explain_graph(model, g, 0.4)
        records = [explanation_record(0, expl)]
        path = tmp_path / "expl.jsonl"
        write_explanations(str(path), records)
        back = read_explanations(str(path))
        assert back == records
        assert back[0]["threshold"] == 0.4
        assert sum(back[0]["importance"]) == pytest.approx(1.0, abs=1e-9)
