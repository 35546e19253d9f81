import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn import kernel, numkit as nk
from xgkn.data import Dataset, stratified_split
import oracles
from xgkn.errors import (
    CapacityError,
    FeatureRowError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
)
from xgkn.graphs import Graph, Rng
from xgkn.kernel import SplitWalks, build_subgraph_stack, filter_products, stack_responses
from xgkn.model import (
    ModelConfig,
    Predictor,
    TrainConfig,
    XgknModel,
    _aggregate,
    INFERENCE_CHUNK,
    evaluate_accuracy,
    forward_batch,
    init_model,
    model_from_dict,
    model_to_dict,
    perturb_filters,
    train,
    train_step,
)

from conftest import cycle_graph, path_graph, random_graph, subgraphs_of, with_label
from oracles import (
    backward,
    flat_grad,
    rank_one_walks_chain,
    segment_col_max_loop,
    tape_step,
)


def batch_of(model, stacks):
    """The graph side of the per-graph ``stacks`` as one batch, and each
    row's graph, as ``train`` hands a batch to ``train_step``."""
    return SplitWalks(stacks, model.walk_cap).batch(range(len(stacks)))


class Optimizer:
    """The parameters of ``model`` as views of an Adam state's flat buffer,
    and a gradient buffer laid out alike, as ``train`` sets them up."""

    def __init__(self, model, lr=0.05, weight_decay=1e-4):
        self.model = model
        self.state = nk.AdamState(model.parameters(), lr=lr, weight_decay=weight_decay)
        model.set_parameters(self.state.split(self.state.flat))
        self.grad = np.zeros_like(self.state.flat)
        self.classes = np.eye(model.encoder.weight.shape[0])

    def step(self, inputs, graph_seg, labels, update=True):
        """One explicit training step: the loss and logits, then the
        gradient in ``self.grad``, then (with ``update``) the Adam update."""
        loss, logits, steps = train_step(self.model, inputs, graph_seg, labels, self.classes,
                                         self.state.split(self.grad))
        nk.backward(steps, self.grad)
        if update:
            nk.adam_step(self.state, self.grad)
        return loss, logits

    def tape_step(self, inputs, graph_seg, labels, chains=False):
        """The same step on the tape (``oracles.tape_step``), its gradient
        laid out as ``self.grad``, then the Adam update."""
        loss, logits, leaves = tape_step(self.model, inputs, graph_seg, labels, chains)
        backward(loss)
        grad = flat_grad(leaves)
        nk.adam_step(self.state, grad)
        return logits.values, grad


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
    r = np.asarray(R, dtype=np.float64)
    z, s_tilde, _, _ = _aggregate(r, mode, 1e-8, np.zeros(r.shape[0], dtype=np.int64), 1)
    return z.reshape(-1), s_tilde


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
        z, contributions, argrow, back = _aggregate(values, "max", 1e-8, seg, len(sizes))
        want = segment_col_max_loop(values, seg, len(sizes), upstream)
        for got, expected in zip((z, argrow, back(upstream)[0], contributions), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestPredictor:
    def test_zero_weights_give_bias(self):
        pred = Predictor(3, 2, depth=1, hidden_dim=4, rng=Rng(0))
        w, b = pred.layers[0]
        w[...] = 0.0
        b[...] = [[1.5, -2.5]]
        out = pred.logits(np.random.default_rng(0).normal(size=(4, 3)))
        assert np.allclose(out, [[1.5, -2.5]] * 4)

    def test_identity_like_weights(self):
        pred = Predictor(2, 2, depth=1, hidden_dim=4, rng=Rng(0))
        w, b = pred.layers[0]
        w[...] = np.eye(2)
        b[...] = 0.0
        out = pred.logits(np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-4)

    def test_matches_matrix_vector_oracle(self):
        rng = Rng(4)
        pred = Predictor(3, 2, depth=1, hidden_dim=4, rng=rng)
        pred.running_mean = rng.normal(size=(1, 3))
        pred.running_var = np.abs(rng.normal(size=(1, 3))) + 0.5
        z = rng.normal(size=(1, 3))
        out = pred.logits(z)
        normed = (z - pred.running_mean) / np.sqrt(pred.running_var + pred.bn_eps)
        affine = normed * pred.gamma + pred.beta
        w, b = pred.layers[0]
        expected = affine @ w + b
        assert np.allclose(out, expected, atol=1e-12)

    def test_training_step_updates_running_stats(self, rng):
        model = small_model()
        pred = model.predictor
        before = pred.running_mean.copy(), pred.running_var.copy()
        graphs = mixed_graphs(rng, 6, onehot=False)
        inputs, seg = batch_of(model, [build_subgraph_stack(g, 1, 6) for g in graphs])
        Optimizer(model).step(inputs, seg, [g.label for g in graphs], update=False)
        assert not np.array_equal(pred.running_mean, before[0])
        assert not np.array_equal(pred.running_var, before[1])

    def test_inference_is_frozen(self):
        pred = Predictor(2, 2, depth=1, hidden_dim=4, rng=Rng(1))
        before = pred.running_mean.copy()
        pred.logits(np.array([[1.0, 2.0]]))
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
    order: one per ``kernel.stack_responses`` call, that is one per training
    step and one per inference chunk or recalibration part."""
    calls = []
    class_table_product = nk.class_table_product

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
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
            z, contributions, argrow, _ = _aggregate(r, mode, model.config.entropy_eps, seg,
                                                     count, norm_scope)
            return z, contributions, argrow, model.predictor.logits(z)

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
        inputs, seg = batch_of(model, stacks)
        r = stack_responses(inputs, filter_products(model.bank, model.encoder, model.walk_cap),
                            training=True)[0]
        pred = model.predictor
        gamma, beta, layers = pred.gamma.copy(), pred.beta.copy(), list(pred.layers)
        _, logits = Optimizer(model).step(inputs, seg, [g.label for g in graphs], update=False)
        clamped = np.maximum(r, model.config.entropy_eps)
        col_sums = np.zeros((len(stacks), 8))
        np.add.at(col_sums, seg, clamped * clamped)
        q = clamped / np.sqrt(col_sums @ np.ones((8, 1)))[seg]
        want_z = np.zeros((len(stacks), 8))
        np.add.at(want_z, seg, q * np.log(q))
        batch = np.full((1, 1), 1.0 / len(stacks))
        centered = want_z - want_z.sum(axis=0, keepdims=True) * batch
        var = (centered * centered).sum(axis=0, keepdims=True) * batch
        out = centered / np.sqrt(var + pred.bn_eps) * gamma + beta
        for i, (w, b) in enumerate(layers):
            out = out @ w + b
            if i + 1 < len(layers):
                out = out * (out > 0.0)
        assert np.array_equal(logits, out)


def step_lengths(graphs, feature_dim: int) -> set:
    """The steps of one training step's program over ``graphs``, for walk
    caps 2 and 6 and for 1 and 8 filters."""
    stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
    labels = np.array([g.label for g in graphs])
    lengths = set()
    for walk_cap in (2, 6):
        for num_filters in (1, 8):
            model = small_model(feature_dim=feature_dim, walk_cap=walk_cap,
                                num_filters=num_filters)
            inputs, seg = batch_of(model, stacks)
            grads = [np.zeros(p.shape) for p in model.parameters()]
            lengths.add(len(train_step(model, inputs, seg, labels,
                                       np.eye(feature_dim), grads)[2]))
    return lengths


class TestTrain:
    @pytest.mark.parametrize("onehot", [False, True])
    def test_program_does_not_grow_with_walk_cap(self, rng, onehot, op_calls):
        # one-hot and constant features take the class walks: the walk sum
        # is two ops however many steps it takes, and the filter bank's
        # parameter ops one each however many filters it holds; a per-step
        # or per-filter chain would add ops
        graphs = mixed_graphs(rng, 12, onehot)
        assert len(step_lengths(graphs, 4 if onehot else 1)) == 1
        assert len(op_calls) == 4

    @pytest.mark.parametrize("onehot", [False, True])
    def test_a_step_of_the_bench_model_runs_10_ops(self, rng, onehot):
        # the filter adjacency, the rows' normalization, the encoder's
        # product and normalization, the class products, the responses,
        # the entropy aggregation, batch norm, the layer and the loss
        graphs = mixed_graphs(rng, 24, onehot)
        stacks = [build_subgraph_stack(g, 1, 5) for g in graphs]
        config = ModelConfig(num_filters=8, filter_size=6, embed_dim=16, hop_radius=1,
                             max_subgraph_size=5, agg_mode="negative_entropy")
        model = init_model(config, 4 if onehot else 1, 2, Rng(0))
        inputs, seg = batch_of(model, stacks)
        grads = [np.zeros(p.shape) for p in model.parameters()]
        steps = train_step(model, inputs, seg, [g.label for g in graphs],
                           np.eye(4 if onehot else 1), grads)[2]
        assert len(steps) == 10

    @pytest.mark.parametrize("walk_cap", [None, 0])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("norm_scope", ["global", "per_column"])
    @pytest.mark.parametrize("mode", ["sum", "negative_entropy", "max"])
    def test_flat_gradient_equals_the_tape(self, rng, mode, norm_scope, depth, walk_cap):
        # three Adam steps of the explicit step and of the tape, one-hot and
        # constant features, batches of 12 graphs and of 1: loss, logits,
        # the flat gradient, the running statistics and the parameters byte
        # for byte
        for onehot in (False, True):
            graphs = mixed_graphs(rng, 25, onehot)
            stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
            labels = np.array([g.label for g in graphs])
            runs = []
            for tape in (False, True):
                model = small_model(feature_dim=4 if onehot else 1, num_filters=3,
                                    agg_mode=mode, norm_scope=norm_scope,
                                    predictor_depth=depth, walk_cap=walk_cap)
                opt = Optimizer(model)
                seen = []
                for batch in (slice(0, 12), slice(12, 24), slice(24, 25)):
                    inputs, seg = batch_of(model, stacks[batch])
                    if tape:
                        logits, grad = opt.tape_step(inputs, seg, labels[batch])
                    else:
                        logits = opt.step(inputs, seg, labels[batch])[1]
                        grad = opt.grad.copy()
                    seen += [logits, grad]
                pred = model.predictor
                runs.append(seen + [opt.state.flat, pred.running_mean, pred.running_var])
            for got, want in zip(*runs):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("norm_scope", ["global", "per_column"])
    def test_training_steps_equal_the_chains(self, rng, depth, norm_scope):
        # three Adam steps through the fused ops and through the chains of
        # autograd nodes they replace: logits, every gradient, the running
        # statistics and the parameters byte for byte
        graphs = mixed_graphs(rng, 24, onehot=True)
        stacks = [build_subgraph_stack(g, 1, 6) for g in graphs]
        labels = np.array([g.label for g in graphs])
        runs = []
        for chains in (False, True):
            model = small_model(feature_dim=4, num_filters=4, predictor_depth=depth,
                                norm_scope=norm_scope)
            opt = Optimizer(model)
            seen = []
            for step in range(3):
                batch = slice(step % 2 * 12, step % 2 * 12 + 12)
                inputs, seg = batch_of(model, stacks[batch])
                if chains:
                    logits, grad = opt.tape_step(inputs, seg, labels[batch], chains=True)
                else:
                    logits = opt.step(inputs, seg, labels[batch])[1]
                    grad = opt.grad.copy()
                seen += [logits, grad]
            pred = model.predictor
            runs.append(seen + [opt.state.flat, pred.running_mean, pred.running_var])
        for got, want in zip(*runs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_non_finite_gradient_raises(self, monkeypatch):
        # batch norm hands gamma an infinite gradient: the loss is finite,
        # so only the check after the reverse pass stops the step, before
        # any update
        batch_norm = nk.batch_norm

        def poisoned(*args):
            out, mean, var, back = batch_norm(*args)
            return out, mean, var, lambda g: (back(g)[0], np.full(args[1].shape, np.inf),
                                              back(g)[2])

        monkeypatch.setattr(nk, "batch_norm", poisoned)
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model = small_model()
        before = [p.copy() for p in model.parameters()]
        with pytest.raises(NumericError, match="non-finite gradient"):
            train(model, ds, split, TrainConfig(epochs=3, seed=0))
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)

    def test_adam_gets_one_tensor_per_parameter_kind(self):
        # encoder weight, the bank's two tensors, gamma, beta, weight, bias
        assert len(small_model(num_filters=8).parameters()) == 7

    def test_constant_feature_training_steps_match_the_per_filter_chain(self, rng,
                                                                        monkeypatch):
        # five Adam steps through the class walks at K = 1 and through the
        # per-filter rank-one chain of autograd nodes, which sums in another
        # order, end at the same parameters within 1e-12 relative
        graphs = mixed_graphs(rng, 24, onehot=False)
        stacks = [build_subgraph_stack(g, 2, 6) for g in graphs]
        labels = np.array([g.label for g in graphs])
        initial = small_model(num_filters=4, filter_size=4).parameters()
        calls = []

        def chain(rows, shared, adjacencies, table, classes, cap, row_local=False, order=None):
            calls.append(table.shape[1])
            assert np.array_equal(order, np.arange(len(classes)))
            return rank_one_walks_chain(rows, shared, adjacencies, table[:, 0], cap)

        monkeypatch.setattr(oracles, "class_walks", chain)
        finals = []
        for tape in (False, True):
            model = small_model(num_filters=4, filter_size=4)
            opt = Optimizer(model)
            for step in range(5):
                batch = slice(step % 2 * 12, step % 2 * 12 + 12)
                inputs, seg = batch_of(model, stacks[batch])
                if tape:
                    opt.tape_step(inputs, seg, labels[batch])
                else:
                    opt.step(inputs, seg, labels[batch])
            finals.append(model.parameters())
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
        assert all(np.isfinite(p).all() for p in model.parameters())

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
        before = [p.copy() for p in small_model().parameters()]
        model, history = train(small_model(), ds, split, TrainConfig(epochs=1, seed=0))
        assert len(history) == 1
        for p, b in zip(model.parameters(), before):
            assert not np.array_equal(p, b)

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
        opt = Optimizer(hand, lr=cfg.lr, weight_decay=cfg.weight_decay)
        shuffle = Rng(cfg.seed).derive("shuffle")
        split_walks = SplitWalks(stacks, hand.walk_cap)
        for _ in range(cfg.epochs):
            order = shuffle.permutation(len(stacks))
            for lo in range(0, len(stacks), cfg.batch_size):
                batch = order[lo:lo + cfg.batch_size]
                opt.step(*split_walks.batch(batch), labels[batch])
        for got, want in zip(model.parameters(), hand.parameters()):
            assert got.tobytes() == want.tobytes()

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
        before = [p.copy() for p in model.parameters()]
        train(model, ds, split, TrainConfig(epochs=3, lr=0.0, weight_decay=0.0, seed=1))
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)

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
            finals.append([p.copy() for p in model.parameters()])
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

    def test_nan_raises_diverged(self):
        ds = toy_separable_dataset()
        split = stratified_split(ds, 0.2, 1, seed=5)[0]
        model = small_model()
        w, _ = model.predictor.layers[0]
        w[...] = np.nan
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
        # and batch-norm (identical labels keep the bias gradients away from
        # the FD noise floor): the explicit step's gradient against central
        # differences of its loss, every parameter entry
        model = small_model(agg_mode="negative_entropy")
        graphs = [random_graph(5 + i, 0.5, rng.derive("fd", i), d=1)
                  .with_features(np.ones((5 + i, 1))) for i in range(2)]
        inputs, seg = batch_of(model, [build_subgraph_stack(g, 1, 6) for g in graphs])
        labels = np.array([0, 0])
        opt = Optimizer(model)
        opt.step(inputs, seg, labels, update=False)
        worst = 0.0
        # step 2e-4: large enough that difference noise on near-dead
        # coordinates stays under the 1e-8 relative floor
        eps = 2e-4
        for i in range(opt.state.flat.size):
            keep = opt.state.flat[i]
            losses = []
            for shift in (eps, -eps):
                opt.state.flat[i] = keep + shift
                losses.append(opt.step(inputs, seg, labels, update=False)[0].item())
            opt.state.flat[i] = keep
            opt.step(inputs, seg, labels, update=False)
            g_fd = (losses[0] - losses[1]) / (2.0 * eps)
            worst = max(worst, abs(opt.grad[i] - g_fd) / (abs(g_fd) + 1e-8))
        assert worst < 1e-4


class TestPerturbFilters:
    def test_tiny_delta_changes_nothing(self):
        model = small_model()
        pool = np.ones((5, 1))
        out = perturb_filters(model, "features", 1e-9, Rng(3), feature_pool=pool)
        assert np.array_equal(out.bank.features, model.bank.features)
        out = perturb_filters(model, "edges", 1e-9, Rng(3))
        assert np.array_equal(out.bank.adjacency_logits, model.bank.adjacency_logits)

    def test_feature_mode_uses_encoded_pool_rows(self):
        model = small_model()
        pool = np.full((4, 1), 3.0)
        out = perturb_filters(model, "features", 0.999, Rng(5), feature_pool=pool)
        encoded = model.encoder.encode(np.array([[3.0]]))[0]
        for row in out.bank.features:
            assert np.allclose(row, encoded)

    def test_theta_untouched(self):
        model = small_model()
        out = perturb_filters(model, "edges", 0.9, Rng(6))
        assert np.array_equal(out.encoder.weight, model.encoder.weight)
        for a, b in zip(out.parameters()[3:], model.parameters()[3:]):
            assert np.array_equal(a, b)

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
            assert entry["adjacency_logits"] == model.bank.adjacency_logits[rows].tolist()
            assert entry["features"] == model.bank.features[rows].tolist()
        restored = model_from_dict(json.loads(json.dumps(payload)))
        for a, b in zip(restored.parameters(), model.parameters()):
            assert a.tobytes() == b.tobytes()

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
