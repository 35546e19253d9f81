import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn import kernel, numkit as nk
from xgkn.data import Dataset, stratified_split
from xgkn.errors import CapacityError, FeatureRowError, ShapeError, TrainingDivergedError
from xgkn.graphs import Graph, Rng
from xgkn.kernel import SplitWalks, build_subgraph_stack
from xgkn.model import (
    ModelConfig,
    Predictor,
    TrainConfig,
    XgknModel,
    _aggregate_tensor,
    _batch_forward,
    INFERENCE_CHUNK,
    evaluate_accuracy,
    forward_batch,
    init_model,
    model_from_dict,
    model_to_dict,
    perturb_filters,
    train,
)

from conftest import cycle_graph, path_graph, random_graph, subgraphs_of, with_label
from oracles import (
    batch_norm_chain,
    finite_difference_check,
    negative_entropy_chain,
    rank_one_walks_chain,
    segment_col_max_loop,
    symmetric_adjacency_chain,
    tsum,
)


def batch_forward(model, stacks, training):
    """``_batch_forward`` over the per-graph ``stacks`` as one batch, as
    ``train`` scores a batch."""
    split = SplitWalks(stacks, model.walk_cap)
    return _batch_forward(model, *split.batch(range(len(stacks))), len(stacks),
                          training=training)


def toy_separable_dataset() -> Dataset:
    """Cycles (class 0) versus paths (class 1), constant features."""
    graphs = []
    for size in (5, 6, 7, 8, 9):
        for _ in range(5):
            graphs.append(with_label(cycle_graph(size), 0))
            graphs.append(with_label(path_graph(size), 1))
    return Dataset(graphs=tuple(graphs), num_classes=2, name="toy")


def small_model(feature_dim=1, num_classes=2, seed=0, **overrides) -> XgknModel:
    defaults = dict(num_filters=2, filter_size=3, embed_dim=4, hop_radius=1,
                    max_subgraph_size=6)
    defaults.update(overrides)
    return init_model(ModelConfig(**defaults), feature_dim, num_classes, Rng(seed))


def aggregate_one_graph(R: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """One response matrix aggregated as a batch of one graph: the per-filter
    scores and the additive per-row contributions."""
    r = nk.Tensor(np.asarray(R, dtype=np.float64))
    z, s_tilde, _ = _aggregate_tensor(r, mode, 1e-8, np.zeros(r.shape[0], dtype=np.int64), 1)
    return z.values.reshape(-1), s_tilde


class TestAggregate:
    def test_sum_mode(self):
        z, s_tilde = aggregate_one_graph(np.array([[1.0, 2.0], [3.0, 4.0]]), "sum")
        assert np.allclose(z, [4.0, 6.0])
        assert np.allclose(s_tilde, [[1.0, 2.0], [3.0, 4.0]])

    def test_entropy_single_nonzero_entry(self):
        z, _ = aggregate_one_graph(np.array([[5.0], [0.0]]), "negative_entropy")
        assert abs(z[0]) < 1e-6

    def test_entropy_two_equal_entries(self):
        # norm sqrt(2), q = 1/sqrt(2) each, z = -sqrt(2) ln(2) / 2
        z, s_tilde = aggregate_one_graph(np.array([[1.0], [1.0]]), "negative_entropy")
        expected = 2.0 * (1.0 / math.sqrt(2.0)) * math.log(1.0 / math.sqrt(2.0))
        assert z[0] == pytest.approx(expected, abs=1e-9)
        assert z[0] == pytest.approx(-0.4901, abs=1e-4)
        assert np.allclose(s_tilde.sum(axis=0), z)

    def test_max_mode_records_argmax(self):
        z, s_tilde = aggregate_one_graph(np.array([[1.0, 9.0], [5.0, 2.0]]), "max")
        assert np.allclose(z, [5.0, 9.0])
        assert np.allclose(s_tilde, [[0.0, 9.0], [5.0, 0.0]])

    def test_additive_decomposition_invariant(self, rng):
        for mode in ("sum", "negative_entropy"):
            for trial in range(10):
                r = rng.normal(size=(6, 3))
                z, s_tilde = aggregate_one_graph(r, mode)
                assert np.allclose(s_tilde.sum(axis=0), z, atol=1e-9)

    def test_all_zero_entropy_guarded(self):
        z, _ = aggregate_one_graph(np.zeros((4, 2)), "negative_entropy")
        assert np.all(np.isfinite(z))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_max_mode_equals_the_loops(self, sizes, cols, seed):
        # three values only, so columns tie within a segment; segments of
        # one row occur
        rng = Rng(seed)
        values = np.array([-1.0, 0.5, 2.0])[rng.integers(0, 3, size=(sum(sizes), cols))]
        seg = np.repeat(np.arange(len(sizes)), sizes)
        upstream = rng.normal(size=(len(sizes), cols))
        r = nk.Tensor(values, requires_grad=True)
        z, contributions, argrow = _aggregate_tensor(r, "max", 1e-8, seg, len(sizes))
        nk.backward(tsum(z * nk.Tensor(upstream)))
        want = segment_col_max_loop(values, seg, len(sizes), upstream)
        for got, expected in zip((z.values, argrow, r.grad, contributions), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestPredictor:
    def test_zero_weights_give_bias(self):
        pred = Predictor(3, 2, depth=1, hidden_dim=4, rng=Rng(0))
        w, b = pred.layers[0]
        w.values = np.zeros_like(w.values)
        b.values = np.array([[1.5, -2.5]])
        out = pred.logits(nk.Tensor(np.random.default_rng(0).normal(size=(4, 3))),
                          training=False)
        assert np.allclose(out.values, [[1.5, -2.5]] * 4)

    def test_identity_like_weights(self):
        pred = Predictor(2, 2, depth=1, hidden_dim=4, rng=Rng(0))
        w, b = pred.layers[0]
        w.values = np.eye(2)
        b.values = np.zeros((1, 2))
        out = pred.logits(nk.Tensor(np.array([[1.0, 0.0]])), training=False)
        assert np.allclose(out.values, [[1.0, 0.0]], atol=1e-4)

    def test_matches_matrix_vector_oracle(self):
        rng = Rng(4)
        pred = Predictor(3, 2, depth=1, hidden_dim=4, rng=rng)
        pred.running_mean = rng.normal(size=(1, 3))
        pred.running_var = np.abs(rng.normal(size=(1, 3))) + 0.5
        z = rng.normal(size=(1, 3))
        out = pred.logits(nk.Tensor(z), training=False).values
        normed = (z - pred.running_mean) / np.sqrt(pred.running_var + pred.bn_eps)
        affine = normed * pred.gamma.values + pred.beta.values
        w, b = pred.layers[0]
        expected = affine @ w.values + b.values
        assert np.allclose(out, expected, atol=1e-12)

    def test_training_mode_updates_running_stats(self):
        pred = Predictor(2, 2, depth=1, hidden_dim=4, rng=Rng(1))
        before = pred.running_mean.copy()
        pred.logits(nk.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), training=True)
        assert not np.array_equal(pred.running_mean, before)

    def test_inference_mode_is_frozen(self):
        pred = Predictor(2, 2, depth=1, hidden_dim=4, rng=Rng(1))
        before = pred.running_mean.copy()
        pred.logits(nk.Tensor(np.array([[1.0, 2.0]])), training=False)
        assert np.array_equal(pred.running_mean, before)


class TestForward:
    def test_trace_consistency_additive_modes(self, rng):
        for mode in ("sum", "negative_entropy"):
            model = small_model(agg_mode=mode)
            g = random_graph(7, 0.4, rng.derive(mode), d=1, binary_features=False)
            g = with_label(g.with_features(np.ones((7, 1))), 0)
            fp = forward_batch(model, [g])
            assert np.allclose(fp.contributions.sum(axis=0), fp.z[0], atol=1e-9)
            assert fp.predicted[0] == int(np.argmax(fp.logits[0]))

    def test_single_node_graph(self):
        model = small_model()
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1), label=0)
        fp = forward_batch(model, [g])
        assert fp.R.shape == (1, 2)
        assert fp.logits.shape == (1, 2)

    def test_prediction_invariant_under_node_reordering(self, rng):
        model = small_model()
        g = random_graph(8, 0.4, rng.derive("perm"), d=1)
        g = g.with_features(np.ones((8, 1)))
        order = rng.permutation(8)
        permuted = Graph(g.adjacency[np.ix_(order, order)], g.features[order],
                         np.arange(8), label=g.label)
        t1 = forward_batch(model, [g])
        t2 = forward_batch(model, [permuted])
        assert np.allclose(t1.logits, t2.logits, atol=1e-9)
        assert np.allclose(t2.R, t1.R[order], atol=1e-9)


def mixed_graphs(rng, count: int, onehot: bool) -> list[Graph]:
    """Random graphs of 1-9 nodes with constant features, or one-hot degree
    features (4 columns, capped), which are uniform on regular graphs."""
    graphs = []
    for i in range(count):
        n = 1 + i % 9
        g = random_graph(n, 0.45, rng.derive("mixed", i)) if i % 5 else cycle_graph(max(n, 3))
        if onehot:
            features = np.eye(4)[np.minimum(g.degrees(), 3)]
        else:
            features = np.ones((g.n, 1))
        graphs.append(with_label(g.with_features(features), i % 2))
    return graphs


@pytest.fixture
def op_calls(monkeypatch):
    """The rows of each call of ``numkit.class_table_product``, in call
    order: one per ``numkit.class_walks`` call, the one walk op of
    ``kernel.stack_responses``, and one per inference chunk handed the
    filter side."""
    calls = []
    class_table_product = nk.class_table_product

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return class_table_product(*args, **kwargs)

    monkeypatch.setattr(nk, "class_table_product", counted)
    return calls


class TestForwardBatch:
    @pytest.mark.parametrize("onehot", [False, True])
    @pytest.mark.parametrize("mode", ["sum", "negative_entropy", "max"])
    def test_matches_one_graph_forward_across_chunks(self, rng, onehot, mode):
        graphs = mixed_graphs(rng, 70, onehot)
        assert len(graphs) > 2 * INFERENCE_CHUNK
        model = small_model(feature_dim=4 if onehot else 1, agg_mode=mode)
        batched = forward_batch(model, graphs)
        bounds = batched.bounds
        assert bounds.tolist() == np.cumsum([0] + [g.n for g in graphs]).tolist()
        assert batched.R.shape == (bounds[-1], model.num_filters)
        for i, g in enumerate(graphs):
            rows = slice(bounds[i], bounds[i + 1])
            want = forward_batch(model, [g])
            assert batched.predicted[i] == want.predicted[0]
            assert np.allclose(batched.logits[i], want.logits[0], rtol=0.0, atol=1e-12)
            assert np.allclose(batched.z[i], want.z[0], rtol=0.0, atol=1e-12)
            assert np.allclose(batched.R[rows], want.R, rtol=0.0, atol=1e-12)
            assert np.allclose(batched.contributions[rows], want.contributions,
                               rtol=0.0, atol=1e-12)
            if mode == "max":
                assert np.array_equal(batched.argmax_rows[i] - bounds[i], want.argmax_rows[0])
                assert batched.argmax_rows[i].max() < bounds[i + 1]
            else:
                assert batched.argmax_rows is None and want.argmax_rows is None

    @pytest.mark.parametrize("onehot", [False, True])
    @pytest.mark.parametrize("mode", ["sum", "negative_entropy", "max"])
    def test_graphs_equal_their_batch_of_one(self, rng, onehot, mode, op_calls):
        # every graph takes class_walks alone and in every chunk, its shapes
        # fixed by the model and its products row-local outside training:
        # graphs whose rows are all equal (1-node graphs, cycles) among
        # others, and edgeless graphs, whose neighbourhoods hold only their
        # anchor, next to wider ones
        graphs = mixed_graphs(rng, 140, onehot)
        for i in range(0, len(graphs), 23):
            features = np.eye(4)[[2, 0, 2]] if onehot else np.ones((3, 1))
            graphs.insert(i, Graph(np.zeros((3, 3)), features, np.arange(3), label=i % 2))
        assert len(graphs) > 2 * INFERENCE_CHUNK
        model = small_model(feature_dim=4 if onehot else 1, num_filters=2, agg_mode=mode)
        batched = forward_batch(model, graphs)
        bounds = batched.bounds
        for i, g in enumerate(graphs):
            want = forward_batch(model, [g])
            assert batched.R[bounds[i]:bounds[i + 1]].tobytes() == want.R.tobytes()
            assert batched.contributions[bounds[i]:bounds[i + 1]].tobytes() \
                == want.contributions.tobytes()
            assert batched.z[i].tobytes() == want.z[0].tobytes()
            assert batched.logits[i].tobytes() == want.logits[0].tobytes()
        chunks = -(-len(graphs) // INFERENCE_CHUNK)
        assert len(op_calls) == chunks + len(graphs)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 9), st.integers(0, 3), st.integers(0, 30), st.integers(0, 2 ** 32 - 1))
    def test_uniform_graph_scores_alone_as_in_a_mixed_chunk(self, n, hot, position, seed):
        # a graph whose one-hot rows are all equal, among graphs whose rows
        # differ and among subgraphs of them, logits byte for byte
        rng = Rng(seed)
        uniform = with_label(random_graph(n, 0.5, rng.derive("u")).with_features(
            np.tile(np.eye(4)[hot], (n, 1))), 0)
        others = [g for g in mixed_graphs(rng, 30, onehot=True)
                  if np.any(g.features != g.features[0])]
        model = small_model(feature_dim=4, num_filters=3, seed=seed % 7)
        alone = forward_batch(model, [uniform]).logits[0].tobytes()
        at = min(position, len(others))
        assert forward_batch(model, others[:at] + [uniform] + others[at:]).logits[at].tobytes() \
            == alone
        parents = others[:3] + [uniform]
        picks = [(i % 3, list(range(1 + i % parents[i % 3].n))) for i in range(at)]
        masked, _ = subgraphs_of(parents, picks + [(3, list(range(n)))] + picks[:5])
        assert forward_batch(model, masked).logits[at].tobytes() == alone

    def test_rows_not_one_hot_are_refused(self, rng):
        # a two-hot row, or a real-valued one, among one-hot rows: alone and
        # in a chunk, with the row's position in its stack; and rows that
        # are all equal but not one-hot
        graphs = mixed_graphs(rng, 6, onehot=True)
        model = small_model(feature_dim=4)
        for bad, entries in ((np.eye(4)[0] + np.eye(4)[2], "{0: 1.0, 2: 1.0}"),
                             (np.array([0.0, 0.25, 0.0, 0.0]), "{1: 0.25}")):
            features = graphs[3].features.copy()
            features[1] = bad
            edited = graphs[:3] + [graphs[3].with_features(features)]
            for batch in (edited, edited[3:]):
                rows = sum(g.n for g in batch)
                with pytest.raises(FeatureRowError, match=re.escape(
                        f"must be one-hot (a single 1.0, zeros elsewhere); row "
                        f"{rows - graphs[3].n + 1} of {rows} has nonzero entries {entries}")):
                    forward_batch(model, batch)
        halves = cycle_graph(5).with_features(np.full((5, 1), 0.5))
        with pytest.raises(FeatureRowError, match=re.escape("row 0 of 5 has nonzero "
                                                            "entries {0: 0.5}")):
            forward_batch(small_model(), [halves])

    @pytest.mark.parametrize("onehot", [False, True])
    def test_subgraphs_equal_their_induced_graphs(self, rng, onehot):
        # subgraphs of six parents, kept as positions, against the same
        # subgraphs built as graphs, across chunks, byte for byte
        parents = mixed_graphs(rng, 6, onehot)
        picks = [(i % 6, rng.permutation(parents[i % 6].n)[:1 + i % parents[i % 6].n].tolist())
                 for i in range(70)]
        masked, built = subgraphs_of(parents, picks)
        assert len(masked) > 2 * INFERENCE_CHUNK
        model = small_model(feature_dim=4 if onehot else 1)
        got, want = forward_batch(model, masked), forward_batch(model, built)
        for name in ("R", "contributions", "z", "logits", "bounds"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_empty_list(self):
        model = small_model()
        fp = forward_batch(model, [])
        assert fp.bounds.tolist() == [0]
        assert fp.z.shape == (0, model.num_filters) and fp.predicted.shape == (0,)

    def test_accuracy_matches_one_graph_forward(self, rng):
        graphs = mixed_graphs(rng, 40, onehot=False)
        ds = Dataset(graphs=tuple(graphs), num_classes=2)
        model = small_model(seed=3)
        ids = range(1, 40, 2)
        correct = sum(forward_batch(model, [graphs[i]]).predicted[0] == graphs[i].label
                      for i in ids)
        assert evaluate_accuracy(model, ds, ids) == correct / len(ids)


class TestRowLocalInference:
    """Aggregation and the predictor outside training, fed response rows
    directly so that no kernel product enters: every graph of a batch scores
    bit for bit as its batch of one."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("norm_scope", ["global", "per_column"])
    @pytest.mark.parametrize("mode", ["sum", "negative_entropy", "max"])
    def test_each_graph_equals_its_batch_of_one(self, mode, norm_scope, depth):
        rng = Rng(9).derive(mode, norm_scope, depth)
        model = small_model(num_filters=8, agg_mode=mode, norm_scope=norm_scope,
                            predictor_depth=depth)
        model.predictor.running_mean = rng.normal(size=(1, 8))
        model.predictor.running_var = rng.random((1, 8)) + 0.5
        sizes = rng.permutation(np.array([1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9] * 6))
        rows = [rng.random((n, 8)) * (rng.random((n, 8)) > 0.1) for n in sizes]
        seg = np.repeat(np.arange(len(sizes)), sizes)
        bounds = np.cumsum([0] + list(sizes))

        def score(r, seg, count):
            z, contributions, argrow = _aggregate_tensor(
                nk.Tensor(r), mode, model.config.entropy_eps, seg, count, norm_scope)
            return z.values, contributions, argrow, model.predictor.logits(z, False).values

        z, contributions, argrow, logits = score(np.vstack(rows), seg, len(sizes))
        for i, (r, lo, hi) in enumerate(zip(rows, bounds, bounds[1:])):
            z1, contributions1, argrow1, logits1 = score(r, np.zeros(len(r), np.int64), 1)
            assert np.array_equal(z[i], z1[0])
            assert np.array_equal(logits[i], logits1[0])
            assert np.array_equal(contributions[lo:hi], contributions1)
            if mode == "max":
                assert np.array_equal(argrow[i] - lo, argrow1[0])

    @pytest.mark.parametrize("depth", [1, 2])
    def test_training_keeps_the_batch_products(self, rng, depth):
        # bit for bit the arithmetic of an explicit ``@`` pass: the global
        # entropy norm as a product with a ones column, the layers as products
        graphs = mixed_graphs(rng, 24, onehot=True)
        stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
        model = small_model(feature_dim=4, num_filters=8, predictor_depth=depth)
        logits, z, r, _, _ = batch_forward(model, stacks, training=True)
        seg = np.repeat(np.arange(len(stacks)), [s.num_nodes for s in stacks])
        clamped = np.maximum(r.values, model.config.entropy_eps)
        col_sums = np.zeros((len(stacks), 8))
        np.add.at(col_sums, seg, clamped * clamped)
        q = clamped / np.sqrt(col_sums @ np.ones((8, 1)))[seg]
        want_z = np.zeros((len(stacks), 8))
        np.add.at(want_z, seg, q * np.log(q))
        assert np.array_equal(z.values, want_z)
        pred = model.predictor
        batch = np.full((1, 1), 1.0 / len(stacks))
        centered = want_z - want_z.sum(axis=0, keepdims=True) * batch
        var = (centered * centered).sum(axis=0, keepdims=True) * batch
        out = centered / np.sqrt(var + pred.bn_eps) * pred.gamma.values + pred.beta.values
        for i, (w, b) in enumerate(pred.layers):
            out = out @ w.values + b.values
            if i + 1 < len(pred.layers):
                out = out * (out > 0.0)
        assert np.array_equal(logits.values, out)


def autograd_nodes(out: nk.Tensor) -> int:
    """Number of tensors in the autograd graph that ends at ``out``."""
    seen = set()
    pending = [out]
    while pending:
        node = pending.pop()
        if id(node) not in seen:
            seen.add(id(node))
            pending.extend(node._parents)
    return len(seen)


def step_node_counts(graphs, feature_dim: int) -> set:
    """The autograd nodes of one training step's loss over ``graphs``, for
    walk caps 2 and 6 and for 1 and 8 filters."""
    stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
    labels = np.array([g.label for g in graphs])
    counts = set()
    for walk_cap in (2, 6):
        for num_filters in (1, 8):
            model = small_model(feature_dim=feature_dim, walk_cap=walk_cap,
                                num_filters=num_filters)
            logits = batch_forward(model, stacks, training=True)[0]
            counts.add(autograd_nodes(nk.cross_entropy(logits, labels)))
    return counts


class TestTrain:
    @pytest.mark.parametrize("onehot", [False, True])
    def test_graph_size_does_not_grow_with_walk_cap(self, rng, onehot, op_calls):
        # one-hot and constant features take class_walks: the walk sum is one
        # node however many steps it takes, and the filter bank's parameter
        # chain one chain however many filters it holds; a per-step or
        # per-filter chain would add nodes
        graphs = mixed_graphs(rng, 12, onehot)
        assert len(step_node_counts(graphs, 4 if onehot else 1)) == 1
        assert len(op_calls) == 4

    @pytest.mark.parametrize("onehot", [False, True])
    def test_a_step_of_the_bench_model_builds_18_nodes(self, rng, onehot):
        # the walk op, one node each for the filter adjacency, the entropy
        # aggregation and batch norm, the rows' normalization, the encoder's
        # product and normalization, the layer's product and bias and the
        # loss: 10 ops, the encoder's identity input and 7 leaves
        graphs = mixed_graphs(rng, 24, onehot)
        stacks = [build_subgraph_stack(g, 1, 5) for g in graphs]
        config = ModelConfig(num_filters=8, filter_size=6, embed_dim=16, hop_radius=1,
                             max_subgraph_size=5, agg_mode="negative_entropy")
        model = init_model(config, 4 if onehot else 1, 2, Rng(0))
        logits = batch_forward(model, stacks, training=True)[0]
        assert autograd_nodes(nk.cross_entropy(logits, [g.label for g in graphs])) == 18

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("norm_scope", ["global", "per_column"])
    def test_training_steps_equal_the_chains(self, rng, monkeypatch, depth, norm_scope):
        # three Adam steps through the fused ops and through the chains of
        # autograd nodes they replace: logits, every gradient, the running
        # statistics and the parameters byte for byte
        graphs = mixed_graphs(rng, 24, onehot=True)
        stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
        labels = np.array([g.label for g in graphs])
        runs = []
        for chains in (False, True):
            if chains:
                monkeypatch.setattr(nk, "symmetric_adjacency", symmetric_adjacency_chain)
                monkeypatch.setattr(nk, "negative_entropy", negative_entropy_chain)
                monkeypatch.setattr(nk, "batch_norm", batch_norm_chain)
            model = small_model(feature_dim=4, num_filters=4, predictor_depth=depth,
                                norm_scope=norm_scope)
            params = model.parameters()
            state = nk.adam_init(params, lr=0.05, weight_decay=1e-4)
            seen = []
            for step in range(3):
                batch = slice(step % 2 * 12, step % 2 * 12 + 12)
                logits = batch_forward(model, stacks[batch], training=True)[0]
                nk.backward(nk.cross_entropy(logits, labels[batch]))
                seen += [logits.values.copy()] + [p.grad.copy() for p in params]
                nk.adam_step(params, state)
            pred = model.predictor
            runs.append(seen + [p.values.copy() for p in params]
                        + [pred.running_mean, pred.running_var])
        for got, want in zip(*runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_adam_gets_one_tensor_per_parameter_kind(self):
        # encoder weight, the bank's two tensors, gamma, beta, weight, bias
        assert len(small_model(num_filters=8).parameters()) == 7

    def test_constant_feature_training_steps_match_the_per_filter_chain(self, rng,
                                                                        monkeypatch):
        # five Adam steps through class_walks at K = 1 and through the
        # per-filter rank-one chain of autograd nodes, which sums in another
        # order, end at the same parameters within 1e-12 relative
        graphs = mixed_graphs(rng, 24, onehot=False)
        stacks = [build_subgraph_stack(g, 2, 6) for g in graphs]
        labels = np.array([g.label for g in graphs])
        initial = [p.values for p in small_model(num_filters=4, filter_size=4).parameters()]
        class_walks, calls = nk.class_walks, []

        def chain(rows, shared, adjacencies, table, classes, cap, row_local=False, order=None):
            calls.append(table.shape[1])
            assert np.array_equal(order, np.arange(len(classes)))
            return rank_one_walks_chain(rows, shared, adjacencies, table[:, 0], cap)

        finals = []
        for op in (class_walks, chain):
            monkeypatch.setattr(nk, "class_walks", op)
            model = small_model(num_filters=4, filter_size=4)
            params = model.parameters()
            state = nk.adam_init(params, lr=0.05, weight_decay=1e-4)
            for step in range(5):
                batch = slice(step % 2 * 12, step % 2 * 12 + 12)
                logits = batch_forward(model, stacks[batch], training=True)[0]
                nk.backward(nk.cross_entropy(logits, labels[batch]))
                nk.adam_step(params, state)
            finals.append([p.values for p in params])
        assert calls == [1] * 5
        for got, want, start in zip(*finals, initial):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert not np.array_equal(got, start)

    def test_constant_features_train_at_walk_cap_zero(self):
        # no walk step uses the filter adjacencies: they get zero gradients,
        # not none
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model, history = train(small_model(walk_cap=0), ds, split,
                               TrainConfig(epochs=3, seed=0))
        assert len(history) == 3
        assert all(np.isfinite(p.values).all() for p in model.parameters())

    @pytest.mark.parametrize("epochs", [1, 5])
    def test_walk_table_is_built_once_per_split(self, monkeypatch, op_calls, epochs):
        # one walk table over the training split's rows, however many epochs
        # and batches; every batch and the recalibration still take a walk op
        tables = []
        anchor_walks = kernel.anchor_walks

        def counted(blocks, steps):
            tables.append(blocks.shape[0])
            return anchor_walks(blocks, steps)

        monkeypatch.setattr(kernel, "anchor_walks", counted)
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=0)[0]
        train(small_model(), ds, split, TrainConfig(epochs=epochs, batch_size=8, seed=0))
        assert tables == [sum(ds.graphs[i].n for i in split.train_ids)]
        batches = -(-len(split.train_ids) // 8)
        assert batches > 1
        assert len(op_calls) == epochs * batches + 1

    def test_one_epoch_changes_the_parameters(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=0)[0]
        before = [p.values.copy() for p in small_model().parameters()]
        model, history = train(small_model(), ds, split, TrainConfig(epochs=1, seed=0))
        assert len(history) == 1
        for p, b in zip(model.parameters(), before):
            assert not np.array_equal(p.values, b)

    def test_returns_the_parameters_of_its_last_update(self):
        # bit for bit a hand-written loop over the same batches, whose last
        # epoch's loss need not be the lowest
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=4)[0]
        cfg = TrainConfig(epochs=6, lr=0.2, batch_size=8, seed=2)
        model, history = train(small_model(seed=5), ds, split, cfg)
        assert len(history) == cfg.epochs
        stacks = [build_subgraph_stack(ds.graphs[i], 1, 6) for i in split.train_ids]
        labels = np.array([ds.graphs[i].label for i in split.train_ids])
        hand = small_model(seed=5)
        params = hand.parameters()
        state = nk.adam_init(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        shuffle = Rng(cfg.seed).derive("shuffle")
        split_walks = SplitWalks(stacks, hand.walk_cap)
        for _ in range(cfg.epochs):
            order = shuffle.permutation(len(stacks))
            for lo in range(0, len(stacks), cfg.batch_size):
                batch = order[lo:lo + cfg.batch_size]
                logits = _batch_forward(hand, *split_walks.batch(batch), len(batch),
                                        training=True)[0]
                nk.backward(nk.cross_entropy(logits, labels[batch]))
                nk.adam_step(params, state)
        for got, want in zip(model.parameters(), params):
            assert got.values.tobytes() == want.values.tobytes()

    def test_patience_ends_a_plateau(self):
        # with lr 0 every epoch scores the same loss: the first epoch stays
        # the best, and the run stops once `patience` epochs have not beaten it
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=0)[0]
        _, history = train(small_model(), ds, split,
                           TrainConfig(epochs=50, lr=0.0, weight_decay=0.0, patience=3, seed=1))
        assert len(history) == 5
        assert np.ptp([h["loss"] for h in history]) <= 1e-12

    def test_lr_zero_keeps_parameters(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=0)[0]
        model = small_model()
        before = [p.values.copy() for p in model.parameters()]
        train(model, ds, split, TrainConfig(epochs=3, lr=0.0, weight_decay=0.0, seed=1))
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.values, b)

    def test_separable_toy_reaches_full_train_accuracy(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=3)[0]
        model = small_model(seed=7)
        model, history = train(model, ds, split, TrainConfig(epochs=200, seed=3))
        assert evaluate_accuracy(model, ds, split.train_ids) == 1.0
        assert evaluate_accuracy(model, ds, (i for i in split.train_ids)) == 1.0
        assert len(history) <= 200

    def test_training_is_deterministic(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        finals = []
        for _ in range(2):
            model = small_model(seed=11)
            model, _ = train(model, ds, split, TrainConfig(epochs=10, seed=5))
            finals.append([p.values.copy() for p in model.parameters()])
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

    def test_nan_raises_diverged(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model = small_model()
        w, _ = model.predictor.layers[0]
        w.values = np.full_like(w.values, np.nan)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, ds, split, TrainConfig(epochs=3, seed=0))
        assert err.value.epoch == 0

    def test_baseline_is_set_after_training(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model = small_model()
        model, _ = train(model, ds, split, TrainConfig(epochs=2, seed=0))
        assert model.z_baseline.shape == (2,)
        assert np.any(model.z_baseline != 0.0)

    def test_end_to_end_gradients_match_finite_differences(self, rng):
        # micro-batch of 2 size-distinct graphs through entropy aggregation
        # and batch-norm (momentum zeroed so the objective is pure; identical
        # labels keep the bias gradients away from the FD noise floor)
        model = small_model(agg_mode="negative_entropy", bn_momentum=0.0)
        graphs = [random_graph(5 + i, 0.5, rng.derive("fd", i), d=1)
                  .with_features(np.ones((5 + i, 1))) for i in range(2)]
        stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
        labels = np.array([0, 0])
        params = model.parameters()

        def objective():
            logits = batch_forward(model, stacks, training=True)[0]
            return nk.cross_entropy(logits, labels)

        # step 2e-4: large enough that difference noise on near-dead
        # coordinates stays under the 1e-8 relative floor
        assert finite_difference_check(objective, params, eps=2e-4) < 1e-4


class TestPerturbFilters:
    def test_tiny_delta_changes_nothing(self):
        model = small_model()
        pool = np.ones((5, 1))
        out = perturb_filters(model, "features", 1e-9, Rng(3), feature_pool=pool)
        assert np.array_equal(out.bank.features.values, model.bank.features.values)
        out = perturb_filters(model, "edges", 1e-9, Rng(3))
        assert np.array_equal(out.bank.adjacency_logits.values,
                              model.bank.adjacency_logits.values)

    def test_feature_mode_uses_encoded_pool_rows(self):
        model = small_model()
        pool = np.full((4, 1), 3.0)
        out = perturb_filters(model, "features", 0.999, Rng(5), feature_pool=pool)
        encoded = model.encoder.encode_rows(np.array([[3.0]]))[0]
        for row in out.bank.features.values:
            assert np.allclose(row, encoded)

    def test_theta_untouched(self):
        model = small_model()
        out = perturb_filters(model, "edges", 0.9, Rng(6))
        assert np.array_equal(out.encoder.weight.values, model.encoder.weight.values)
        for a, b in zip(out.predictor.parameters(), model.predictor.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_edge_toggle_fraction_monte_carlo(self):
        model = small_model(filter_size=8, num_filters=1)
        base = model.bank.adjacency_values()[0] >= 0.5
        pairs = 8 * 7 // 2
        toggled = 0
        trials = 1000
        master = Rng(99)
        for t in range(trials):
            out = perturb_filters(model, "edges", 0.5, master.derive(t))
            now = out.bank.adjacency_values()[0] >= 0.5
            changed = (base != now)
            toggled += int(np.triu(changed, 1).sum())
        fraction = toggled / (trials * pairs)
        assert abs(fraction - 0.5) <= 0.05


class TestCheckpoint:
    def test_json_round_trip_preserves_forward(self, rng):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model = small_model(seed=2)
        model, _ = train(model, ds, split, TrainConfig(epochs=3, seed=2))
        payload = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(payload)
        g = ds.graphs[0]
        t1, t2 = forward_batch(model, [g]), forward_batch(restored, [g])
        assert np.array_equal(t1.logits, t2.logits)
        assert np.array_equal(t1.R, t2.R)
        assert np.array_equal(model.z_baseline, restored.z_baseline)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": 999})

    def test_filters_written_one_entry_each(self):
        model = small_model(num_filters=3, filter_size=4, embed_dim=5)
        payload = model_to_dict(model)
        assert len(payload["filters"]) == 3
        for f, entry in enumerate(payload["filters"]):
            rows = slice(4 * f, 4 * f + 4)
            assert entry["adjacency_logits"] == \
                model.bank.adjacency_logits.values[rows].tolist()
            assert entry["features"] == model.bank.features.values[rows].tolist()
        restored = model_from_dict(json.loads(json.dumps(payload)))
        for a, b in zip(restored.parameters(), model.parameters()):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("edit,field,shapes", [
        (lambda p: p["filters"][1].update(adjacency_logits=np.zeros((5, 5)).tolist()),
         "filters[1].adjacency_logits", "(5, 5), expected (3, 3)"),
        (lambda p: p["filters"][0].update(features=np.zeros((3, 2)).tolist()),
         "filters[0].features", "(3, 2), expected (3, 4)"),
        (lambda p: p["filters"].append(p["filters"][0]),
         "filters", "has 3 entries, expected num_filters = 2"),
        (lambda p: p.update(encoder_weight=np.zeros((2, 4)).tolist()),
         "encoder_weight", "(2, 4), expected (1, 4)"),
    ])
    def test_shapes_checked_against_the_config(self, edit, field, shapes):
        payload = model_to_dict(small_model())
        edit(payload)
        with pytest.raises(ShapeError, match=f"'{re.escape(field)}'.*{re.escape(shapes)}"):
            model_from_dict(payload)

    def test_class_products_over_the_bound_are_refused_when_built(self):
        # 2 filters x K² class products x 4 walk steps: K = 1448 is the most
        # within MAX_BLOCK_ENTRIES; 1449 and 1500 columns are refused by
        # init_model and by model_from_dict, before any training
        assert 8 * 1448 ** 2 <= kernel.MAX_BLOCK_ENTRIES < 8 * 1449 ** 2
        small_model(feature_dim=1448)
        for k in (1449, 1500):
            message = f"K = {k} feature columns, F = 2 filters and walk cap 3 need"
            with pytest.raises(CapacityError, match=message):
                small_model(feature_dim=k)
            payload = model_to_dict(small_model())
            payload.update(feature_dim=k, encoder_weight=np.zeros((k, 4)).tolist())
            with pytest.raises(CapacityError, match=message):
                model_from_dict(payload)
