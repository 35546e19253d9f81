import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn import kernel, numkit as nk
from xgkn.errors import CapacityError, FeatureRowError, ShapeError
from xgkn.graphs import Graph, Rng, k_hop_neighborhood
from xgkn.kernel import (
    MAX_BLOCK_ENTRIES,
    FeatureEncoder,
    FilterBank,
    SplitWalks,
    anchor_walks,
    build_stack,
    build_subgraph_stack,
    combine_stacks,
)

from conftest import (
    cycle_graph,
    path_graph,
    random_graph,
    stack_responses_of,
    subgraphs_of,
    zero_grad,
)
from oracles import (
    AnchorError,
    GraphFilter,
    anchored_rw_kernel,
    bank_of,
    direct_product,
    filter_as_graph,
    finite_difference_check,
    group_col_sums,
    neighbourhood_walks_loop,
    node_pair_similarity,
    rank_one_walks_chain,
    rw_kernel,
    stack_responses_per_filter,
    transpose,
    tsum,
    walk_horner,
    walk_horner_per_step,
    walk_horner_responses,
    walk_inputs_per_batch,
    walk_kernel_bruteforce,
)
from test_model import autograd_nodes


def constant_similarity_filter(adjacency: np.ndarray, embed_dim: int = 2) -> GraphFilter:
    """Filter whose effective adjacency equals ``adjacency`` exactly (saturated
    logits) and whose rows all embed to the same unit vector."""
    size = adjacency.shape[0]
    logits = np.where(adjacency > 0, 40.0, -40.0)
    np.fill_diagonal(logits, -40.0)
    return GraphFilter(nk.Tensor(logits, requires_grad=True),
                       nk.Tensor(np.ones((size, embed_dim)), requires_grad=True))


def unit_encoder(feature_dim: int = 1, embed_dim: int = 2) -> FeatureEncoder:
    return FeatureEncoder(nk.Tensor(np.ones((feature_dim, embed_dim)), requires_grad=True))


def anchored_at(g: Graph, position: int) -> Graph:
    order = [position] + [p for p in range(g.n) if p != position]
    idx = np.asarray(order)
    return Graph(g.adjacency[np.ix_(idx, idx)], g.features[idx], g.node_ids[idx], anchor=0)


class TestFilterParameterization:
    def test_effective_adjacency_is_symmetric_unit_interval(self, rng):
        adjacencies = FilterBank.init(3, 6, 4, rng).adjacency_values()
        assert adjacencies.shape == (3, 6, 6)
        for adj in adjacencies:
            assert np.array_equal(adj, adj.T)
            assert np.all(np.diagonal(adj) == 0.0)
            assert adj.min() >= 0.0 and adj.max() <= 1.0

    def test_saturated_logits_reach_the_corners(self):
        # sigmoid(40) rounds to 1; sigmoid(-40) is 4e-18
        bank = bank_of([constant_similarity_filter(path_graph(3).adjacency),
                        constant_similarity_filter(cycle_graph(3).adjacency)])
        want = [path_graph(3).adjacency, cycle_graph(3).adjacency]
        assert np.allclose(bank.adjacency_values(), want, rtol=0.0, atol=1e-17)
        assert np.array_equal(bank.adjacency_values() >= 0.5, np.array(want) > 0)

    def test_init_draws_each_filter_from_its_own_stream(self, rng):
        bank = FilterBank.init(3, 4, 5, rng)
        for f, (logits, features) in enumerate(zip(bank.blocks(bank.adjacency_logits.values),
                                                   bank.blocks(bank.features.values))):
            filt = GraphFilter.init(4, 5, rng.derive("filter", f))
            assert logits.tobytes() == filt.adjacency_logits.values.tobytes()
            assert features.tobytes() == filt.features.values.tobytes()

    def test_mismatched_tensors_rejected(self):
        with pytest.raises(ShapeError):
            FilterBank(nk.Tensor(np.zeros((6, 4))), nk.Tensor(np.zeros((6, 2))))
        with pytest.raises(ShapeError):
            FilterBank(nk.Tensor(np.zeros((6, 3))), nk.Tensor(np.zeros((3, 2))))


class TestNodePairSimilarity:
    def test_identical_single_rows(self):
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1), anchor=0)
        s = node_pair_similarity(g, constant_similarity_filter(np.zeros((1, 1))),
                                 unit_encoder())
        assert s.values == pytest.approx(np.array([[1.0]]))

    def test_orthogonal_embeddings_give_zero(self):
        g = Graph(np.zeros((1, 1)), np.array([[1.0, 0.0]]), np.arange(1), anchor=0)
        filt = GraphFilter(nk.Tensor(np.zeros((1, 1))), nk.Tensor(np.array([[0.0, 1.0]])))
        enc = FeatureEncoder(nk.Tensor(np.eye(2)))
        s = node_pair_similarity(g, filt, enc)
        assert s.values == pytest.approx(np.array([[0.0]]))

    def test_matches_per_pair_cosine_oracle(self, rng):
        g = random_graph(3, 0.5, rng.derive(1), d=2)
        filt = GraphFilter.init(4, 5, rng.derive(2))
        enc = FeatureEncoder.init(2, 5, rng.derive(3))
        s = node_pair_similarity(g, filt, enc).values
        embedded = g.features @ enc.weight.values
        embedded /= np.linalg.norm(embedded, axis=1, keepdims=True)
        filter_rows = filt.features.values / np.linalg.norm(
            filt.features.values, axis=1, keepdims=True)
        for i in range(3):
            for j in range(4):
                assert s[i, j] == pytest.approx(float(embedded[i] @ filter_rows[j]), abs=1e-12)


class TestRwKernel:
    def test_single_nodes_identical_features(self):
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1))
        for cap in (0, 1, 5):
            assert rw_kernel(g, g, cap, np.ones((1, 1))) == pytest.approx(1.0)

    def test_two_paths_all_similarities_one(self):
        # p=0 contributes 4, p=1 contributes the 4 directed product edges
        g = path_graph(2)
        assert rw_kernel(g, g, 1, np.ones((2, 2))) == pytest.approx(8.0)

    def test_zero_similarity_gives_exact_zero(self, rng):
        g1 = random_graph(4, 0.5, rng.derive(1))
        g2 = random_graph(3, 0.5, rng.derive(2))
        assert rw_kernel(g1, g2, 3, np.zeros((4, 3))) == 0.0

    def test_symmetry_in_arguments(self, rng):
        for trial in range(5):
            g1 = random_graph(4, 0.5, rng.derive("s1", trial), d=2, binary_features=True)
            g2 = random_graph(3, 0.5, rng.derive("s2", trial), d=2, binary_features=True)
            s = g1.features @ g2.features.T
            assert rw_kernel(g1, g2, 3, s) == pytest.approx(
                rw_kernel(g2, g1, 3, s.T), abs=1e-9)

    def test_monotone_in_walk_cap_for_nonnegative_similarity(self, rng):
        g1 = random_graph(4, 0.6, rng.derive(5), d=2, binary_features=True)
        g2 = random_graph(4, 0.6, rng.derive(6), d=2, binary_features=True)
        s = g1.features @ g2.features.T
        values = [rw_kernel(g1, g2, cap, s) for cap in range(5)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_bruteforce_walk_enumeration(self, rng):
        # simultaneous-walk oracle on the explicit product graph
        for trial in range(50):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            g1 = random_graph(n1, 0.6, rng.derive("a", trial), d=2, binary_features=True)
            g2 = random_graph(n2, 0.6, rng.derive("b", trial), d=2, binary_features=True)
            s = g1.features @ g2.features.T
            cap = int(rng.integers(0, 4))
            product, _ = direct_product(g1, g2)
            expected = walk_kernel_bruteforce(product.adjacency, s.reshape(-1), cap)
            assert rw_kernel(g1, g2, cap, s) == pytest.approx(expected, abs=1e-9)


class TestAnchoredKernel:
    def test_single_node_subgraph(self):
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1), anchor=0)
        out = anchored_rw_kernel(g, constant_similarity_filter(np.zeros((1, 1))),
                                 unit_encoder())
        assert out.item() == pytest.approx(1.0)

    def test_two_node_paths_all_similarities_one(self):
        # anchored p=0 row sums to 2, anchored p=1 row sums to 2
        gv = Graph(path_graph(2).adjacency, np.ones((2, 1)), np.arange(2), anchor=0)
        filt = constant_similarity_filter(path_graph(2).adjacency)
        out = anchored_rw_kernel(gv, filt, unit_encoder(), walk_cap=1)
        assert out.item() == pytest.approx(4.0)

    def test_missing_anchor_rejected(self):
        g = path_graph(3)
        filt = constant_similarity_filter(path_graph(2).adjacency)
        with pytest.raises(AnchorError):
            anchored_rw_kernel(g, filt, unit_encoder())

    def test_matches_anchored_walk_oracle(self, rng):
        for trial in range(50):
            n1 = int(rng.integers(1, 5))
            gv = random_graph(n1, 0.6, rng.derive("g", trial), d=2)
            gv = anchored_at(gv, 0)
            filt = GraphFilter.init(int(rng.integers(1, 5)), 3, rng.derive("f", trial))
            enc = FeatureEncoder.init(2, 3, rng.derive("e", trial))
            cap = int(rng.integers(0, 4))

            s = node_pair_similarity(gv, filt, enc).values
            filter_graph = filter_as_graph(filt)
            product, _ = direct_product(gv, filter_graph)
            anchor_rows = range(filt.size)  # product rows with first coordinate 0
            expected = walk_kernel_bruteforce(product.adjacency, s.reshape(-1), cap,
                                              start_rows=anchor_rows)
            got = anchored_rw_kernel(gv, filt, enc, walk_cap=cap).item()
            assert got == pytest.approx(expected, abs=1e-9)

    def test_sum_over_anchors_equals_full_quadratic_form(self, rng):
        for trial in range(10):
            n = int(rng.integers(2, 5))
            g = random_graph(n, 0.6, rng.derive("q", trial), d=2)
            filt = GraphFilter.init(3, 3, rng.derive("qf", trial))
            enc = FeatureEncoder.init(2, 3, rng.derive("qe", trial))
            total = sum(
                anchored_rw_kernel(anchored_at(g, v), filt, enc, walk_cap=2).item()
                for v in range(n)
            )
            s_full = node_pair_similarity(
                Graph(g.adjacency, g.features, g.node_ids, anchor=0), filt, enc).values
            expected = rw_kernel(g, filter_as_graph(filt), 2, s_full)
            assert total == pytest.approx(expected, abs=1e-9)

    def test_gradients_match_finite_differences(self, rng):
        for trial in range(5):
            gv = anchored_at(random_graph(4, 0.6, rng.derive("fd", trial), d=2), 0)
            filt = GraphFilter.init(3, 3, rng.derive("fdf", trial))
            enc = FeatureEncoder.init(2, 3, rng.derive("fde", trial))
            params = filt.parameters() + [enc.weight]
            err = finite_difference_check(
                lambda: anchored_rw_kernel(gv, filt, enc), params)
            assert err < 1e-4


class TestKernelResponses:
    def test_constant_column_on_vertex_transitive_graph(self, rng):
        g = cycle_graph(6)
        filt = GraphFilter.init(3, 4, rng.derive(1))
        enc = FeatureEncoder.init(1, 4, rng.derive(2))
        r = stack_responses_of(build_subgraph_stack(g, 1, 10), bank_of([filt]), enc).values
        assert r.shape == (6, 1)
        assert np.allclose(r, r[0, 0])

    def test_single_node_graph(self, rng):
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), np.arange(1))
        filt = GraphFilter.init(3, 4, rng.derive(3))
        enc = FeatureEncoder.init(1, 4, rng.derive(4))
        r = stack_responses_of(build_subgraph_stack(g, 2, 5), bank_of([filt]), enc).values
        assert r.shape == (1, 1)

    def test_entries_match_single_call_recomputation(self, rng):
        g = random_graph(6, 0.4, rng.derive(5), d=2)
        filters = [GraphFilter.init(4, 4, rng.derive("f", i)) for i in range(2)]
        enc = FeatureEncoder.init(2, 4, rng.derive(6))
        r = stack_responses_of(build_subgraph_stack(g, 2, 4), bank_of(filters), enc).values
        for v in range(6):
            nb = k_hop_neighborhood(g, v, 2, 4)
            for i, filt in enumerate(filters):
                expected = anchored_rw_kernel(nb, filt, enc).item()
                assert r[v, i] == pytest.approx(expected, abs=1e-9)

    def test_constant_feature_shortcut_matches_single_calls(self, rng):
        # constant features activate the rank-one shortcut; it must agree
        # with the per-neighbourhood oracle entry by entry
        g = random_graph(7, 0.4, rng.derive(11)).with_features(np.ones((7, 1)))
        filters = [GraphFilter.init(4, 3, rng.derive("cf", i)) for i in range(2)]
        enc = FeatureEncoder.init(1, 3, rng.derive(12))
        r = stack_responses_of(build_subgraph_stack(g, 2, 5), bank_of(filters), enc).values
        for v in range(7):
            nb = k_hop_neighborhood(g, v, 2, 5)
            for i, filt in enumerate(filters):
                expected = anchored_rw_kernel(nb, filt, enc).item()
                assert r[v, i] == pytest.approx(expected, abs=1e-9)

    def test_walk_horner_equals_shortcut_on_uniform_features(self, rng):
        # rows of 1 and 2 encode to bitwise the same unit embedding, as the
        # scale cancels in the row normalisation, but they are not one-hot:
        # the package refuses them, and walk_horner over them gives the
        # responses of constant rows, one class walked at K = 1
        g = random_graph(9, 0.4, rng.derive(15))
        scaled = 1.0 + (rng.derive(16).random((9, 1)) < 0.5)
        assert np.unique(scaled).tolist() == [1.0, 2.0]
        bank = FilterBank.init(3, 4, 3, rng.derive("gs"))
        enc = FeatureEncoder.init(1, 3, rng.derive(17))
        for walk_cap in (None, 0, 2):
            cap = bank.size if walk_cap is None else walk_cap
            shortcut = stack_responses_of(build_subgraph_stack(g.with_features(np.ones((9, 1))),
                                                               2, 6), bank, enc, walk_cap).values
            stack = build_subgraph_stack(g.with_features(scaled), 2, 6)
            general = walk_horner_responses(scaled, stack.members,
                                            anchor_walks(stack.blocks, cap), bank, enc).values
            assert np.allclose(general, shortcut, rtol=0.0, atol=1e-12)
            with pytest.raises(FeatureRowError):
                stack_responses_of(stack, bank, enc, walk_cap)

    def test_classes_need_one_hot_rows(self):
        # constant features (one column of ones) are one class; equal rows
        # that are not one-hot are refused like any other
        onehot = np.eye(3)[[0, 2, 1, 2]]
        assert kernel._classes(onehot).tolist() == [0, 2, 1, 2]
        assert kernel._classes(np.tile(onehot[1], (4, 1))).tolist() == [2] * 4
        assert kernel._classes(np.ones((4, 1))).tolist() == [0] * 4
        for rows in (onehot + np.eye(3)[[1, 0, 0, 0]], 2.0 * onehot,
                     np.vstack([onehot[:3], np.zeros(3)]), onehot - 0.5,
                     np.full((4, 2), 0.5), np.ones((4, 3)), np.full((4, 1), 2.0)):
            with pytest.raises(FeatureRowError, match=r"must be one-hot .* row 0 "
                                                      r"of 4 has nonzero entries \{"):
                kernel._classes(rows[[3, 0, 1, 2]])

    def test_constant_feature_shortcut_gradients(self, rng):
        g = random_graph(6, 0.5, rng.derive(13)).with_features(np.ones((6, 1)))
        stack = build_subgraph_stack(g, k=2, max_size=5)
        bank = FilterBank.init(2, 3, 3, rng.derive("cg"))
        enc = FeatureEncoder.init(1, 3, rng.derive(14))
        params = bank.parameters() + [enc.weight]

        def objective():
            r = stack_responses_of(stack, bank, enc)
            return tsum(r * r)

        assert finite_difference_check(objective, params) < 1e-4

    def test_nonnegative_similarities_give_nonnegative_responses(self, rng):
        # one-hot rows and positive-orthant embeddings make every similarity
        # nonnegative, and the walk sums then stay nonnegative
        g = random_graph(6, 0.5, rng.derive(9), d=2)
        bank = FilterBank.init(2, 3, 4, rng.derive("nn"))
        bank.features.values = np.abs(bank.features.values) + 0.1
        enc = FeatureEncoder.init(2, 4, rng.derive(10))
        enc.weight.values = np.abs(enc.weight.values) + 0.1
        r = stack_responses_of(build_subgraph_stack(g, 2, 5), bank, enc).values
        assert r.min() >= 0.0

    def test_stack_responses_gradients_match_finite_differences(self, rng):
        g = random_graph(5, 0.5, rng.derive(7), d=2)
        stack = build_subgraph_stack(g, k=2, max_size=4)
        bank = FilterBank.init(2, 3, 3, rng.derive("sf"))
        enc = FeatureEncoder.init(2, 3, rng.derive(8))
        params = bank.parameters() + [enc.weight]

        def objective():
            r = stack_responses_of(stack, bank, enc)
            return tsum(r * r)

        assert finite_difference_check(objective, params) < 1e-4


@st.composite
def shuffled_graphs(draw, max_nodes=12):
    """Random graph whose node ids are a shuffled sample of 0..99, with a
    chance of isolated nodes (every edge of a node may be absent)."""
    n = draw(st.integers(1, max_nodes))
    density = draw(st.sampled_from([0.0, 0.15, 0.35, 0.7]))
    draws = draw(st.lists(st.floats(0.0, 1.0), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n))
    adj[np.triu_indices(n, 1)] = np.array(draws) < density
    ids = draw(st.permutations(range(100)))[:n]
    features = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return Graph(adj + adj.T, np.array(features).reshape(n, 1), np.array(ids))


def assert_matches_loop(stack, expected, steps, offset=0):
    """``stack`` rows ``offset`` onward hold the neighbourhoods ``expected``
    (from ``neighbourhood_walks_loop``), zero-padded, with the oracle's walk
    weights bit for bit."""
    walks = anchor_walks(stack.blocks, steps)
    for v, (members, adjacency, want) in enumerate(expected, start=offset):
        size = len(members)
        assert (stack.members[v, :size] - offset).tolist() == members
        assert stack.blocks[v, :size, :size].tobytes() == adjacency.tobytes()
        assert walks[:, v, :size].tobytes() == want.tobytes()
        assert not stack.blocks[v, size:].any() and not stack.blocks[v, :, size:].any()
        assert not walks[:, v, size:].any()


class TestVectorisedStackBuilder:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(shuffled_graphs(), st.integers(1, 3), st.integers(1, 10), st.integers(0, 6))
    def test_equals_per_node_loop(self, g, k, max_size, steps):
        stack = build_subgraph_stack(g, k, max_size)
        expected = neighbourhood_walks_loop(g, k, max_size, steps)
        assert stack.num_nodes == g.n
        assert stack.raw_features is g.features
        # as wide as the widest neighbourhood, not as max_size
        assert stack.members.shape == (g.n, max(len(m) for m, _, _ in expected))
        assert_matches_loop(stack, expected, steps)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.lists(shuffled_graphs(max_nodes=8), min_size=1, max_size=6),
           st.integers(1, 3), st.integers(1, 10), st.integers(0, 6))
    def test_combine_equals_per_graph_stacks(self, graphs, k, max_size, steps):
        stacks = [build_subgraph_stack(g, k, max_size) for g in graphs]
        combined, seg = combine_stacks(stacks)
        offsets = np.cumsum([0] + [g.n for g in graphs])
        assert combined.num_nodes == offsets[-1]
        assert np.array_equal(combined.raw_features, np.vstack([g.features for g in graphs]))
        assert combined.members.shape[1] == max(s.members.shape[1] for s in stacks)
        for g, lo in zip(graphs, offsets):
            assert_matches_loop(combined, neighbourhood_walks_loop(g, k, max_size, steps),
                                steps, offset=lo)
        assert seg.tolist() == [i for i, g in enumerate(graphs) for _ in range(g.n)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.lists(shuffled_graphs(max_nodes=10), min_size=1, max_size=8),
           st.integers(1, 3), st.integers(1, 10), st.booleans())
    def test_batch_equals_combined_per_graph_stacks(self, graphs, k, max_size, grouped):
        want, want_seg = combine_stacks([build_subgraph_stack(g, k, max_size) for g in graphs])
        cap = MAX_BLOCK_ENTRIES
        if grouped:
            # a cap that the padded arrays of the whole batch exceed, so that
            # the batch is built in consecutive groups
            n_max = max(g.n for g in graphs)
            cap = max(n_max * n_max, max(g.n * min(g.n, max_size) ** 2 for g in graphs))
        with mock.patch.object(kernel, "MAX_BLOCK_ENTRIES", cap):
            got, seg = build_stack(graphs, k, max_size)
        assert got.num_nodes == want.num_nodes
        for name in ("raw_features", "members", "blocks"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert seg.tobytes() == want_seg.tobytes()

    def test_isolated_nodes_get_one_row_blocks(self):
        g = Graph.from_edges(4, [(1, 2)])
        stack = build_subgraph_stack(g, 2, 5)
        assert stack.members[:, 0].tolist() == [0, 1, 2, 3]
        walks = anchor_walks(stack.blocks, 2)
        assert walks[:, 0].tolist() == walks[:, 3].tolist() == [[1, 0], [0, 0], [0, 0]]
        assert walks[:, 1].tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_bad_radius_or_size_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="hop radius"):
            build_subgraph_stack(g, 0, 5)
        with pytest.raises(ValueError, match="max_size"):
            build_subgraph_stack(g, 1, 0)

    def test_block_size_checked_before_allocating(self):
        # 300 x 300^2 blocks would take 216 MB
        n = 300
        g = Graph(np.ones((n, n)) - np.eye(n), np.ones((n, 1)), np.arange(n))
        assert n ** 3 > MAX_BLOCK_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"300-node graph.*max_subgraph_size "
                                                    r"\(now 1000\)"):
                build_subgraph_stack(g, 1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestSubgraphStacks:
    """Stacks of ``kernel.Subgraphs``, never built as graphs, against
    ``build_stack`` of the same subgraphs built by ``induced_subgraph``."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(shuffled_graphs(max_nodes=10), min_size=1, max_size=4), st.data(),
           st.integers(1, 3), st.integers(1, 10), st.booleans())
    def test_equal_build_stack_of_induced_subgraphs(self, parents, data, k, max_size,
                                                    grouped):
        # any nonempty subset of a parent's nodes, one node included, from any
        # of several parents with shuffled ids, byte for byte
        picks = data.draw(st.lists(st.integers(0, len(parents) - 1).flatmap(
            lambda pi: st.tuples(st.just(pi), st.lists(
                st.integers(0, parents[pi].n - 1), min_size=1, unique=True))),
            min_size=1, max_size=8))
        masked, built = subgraphs_of(parents, picks)
        cap = MAX_BLOCK_ENTRIES
        if grouped:
            # a cap that the padded arrays of the whole batch exceed
            n_max = max(g.n for g in built)
            cap = max(n_max * n_max, max(g.n * min(g.n, max_size) ** 2 for g in built))
        with mock.patch.object(kernel, "MAX_BLOCK_ENTRIES", cap):
            got, seg = build_stack(masked, k, max_size)
        want, want_seg = build_stack(built, k, max_size)
        assert got.num_nodes == want.num_nodes
        for name in ("raw_features", "members", "blocks"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert seg.tobytes() == want_seg.tobytes()
        lo = data.draw(st.integers(0, len(built) - 1))
        assert build_stack(masked[lo:], k, max_size)[0].blocks.tobytes() \
            == build_stack(built[lo:], k, max_size)[0].blocks.tobytes()

    def test_hops_run_on_the_subgraph(self):
        # dropping node 5 of a 6-cycle leaves node 4 four hops from node 0,
        # though two hops away in the parent
        parent = cycle_graph(6)
        masked, _ = subgraphs_of([parent], [(0, [0, 1, 2, 3, 4])])
        stack, _ = build_stack(masked, 2, 10)
        assert 4 in k_hop_neighborhood(parent, 0, 2, 10).node_ids
        walks = anchor_walks(stack.blocks, 4)
        assert stack.members[0, :3].tolist() == [0, 1, 2]
        assert walks[2, 0, 2] == 1.0 and not walks[:, 0, 3:].any()

    def test_block_size_checked_before_allocating(self):
        # 299 x 299^2 blocks of a 300-node parent would take 214 MB
        n = 300
        parent = Graph(np.ones((n, n)) - np.eye(n), np.ones((n, 1)), np.arange(n))
        masked, _ = subgraphs_of([parent], [(0, list(range(n - 1)))])
        assert (n - 1) ** 3 > MAX_BLOCK_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"299-node graph.*max_subgraph_size "
                                                    r"\(now 1000\)"):
                build_stack(masked, 1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def featured(g: Graph, kind: str, draws) -> Graph:
    """``g`` with three feature columns: the first one-hot row for every
    node (``uniform``, which is one-hot too), a one-hot row drawn per node
    (``onehot``) or real-valued rows (``real``), which the kernel refuses."""
    if kind == "uniform":
        return g.with_features(np.tile(np.eye(3)[0], (g.n, 1)))
    if kind == "onehot":
        return g.with_features(np.eye(3)[draws.integers(0, 3, size=g.n)])
    return g.with_features(draws.normal(size=(g.n, 3)))


def assert_batch_equals_own_stacks(split: SplitWalks, stacks, ids) -> None:
    """The split's batch ``ids`` has the walk inputs and row graphs, byte
    for byte, that its own stacks give, their class table summed by
    ``np.bincount`` and grouped by class in stable order."""
    got, seg = split.batch(ids)
    cap = split.cap
    table, classes, raw, want_seg = walk_inputs_per_batch([stacks[i] for i in ids], cap)
    order = np.argsort(classes, kind="stable")
    assert got.cap == cap
    for a, b in zip((seg, got.raw_features, got.table, got.classes, got.order),
                    (want_seg, raw, table[order], classes, order)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSplitWalks:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(st.tuples(shuffled_graphs(max_nodes=8), st.sampled_from(
               ["uniform", "onehot"])), min_size=1, max_size=8), st.booleans(),
           st.integers(1, 3), st.integers(1, 8), st.integers(0, 4), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_batches_equal_their_own_stacks(self, drawn, constant, k, max_size, cap,
                                            batch_size, seed):
        # shuffled batches of graphs of mixed widths, and each graph alone;
        # a split is one-hot in three columns, or constant (one column)
        draws = np.random.default_rng(seed)
        stacks = [build_subgraph_stack(g.with_features(np.ones((g.n, 1))) if constant
                                       else featured(g, kind, draws), k, max_size)
                  for g, kind in drawn]
        split = SplitWalks(stacks, cap)
        order = draws.permutation(len(stacks))
        batches = [order[lo:lo + batch_size] for lo in range(0, len(order), batch_size)]
        for ids in batches + [[i] for i in range(len(stacks))]:
            assert_batch_equals_own_stacks(split, stacks, ids)
        # an inference chunk of the same graphs builds the same table
        whole = kernel.walk_inputs(combine_stacks(stacks)[0], cap)
        assert whole.table.tobytes() == split.batch(range(len(stacks)))[0].table.tobytes()

    def test_class_table_is_built_once_and_bad_rows_refused_up_front(self, monkeypatch):
        # one walk table and class table over the split, however many
        # batches, uniform ones included; a split holding a real-valued row
        # is refused when it is built, before any batch
        tables = []
        anchor_walks = kernel.anchor_walks
        monkeypatch.setattr(kernel, "anchor_walks",
                            lambda blocks, steps: tables.append(blocks.shape[0])
                            or anchor_walks(blocks, steps))
        draws = np.random.default_rng(3)
        graphs = [featured(cycle_graph(5), "uniform", draws),
                  featured(path_graph(7), "uniform", draws),
                  featured(random_graph(9, 0.5, Rng(4)), "onehot", draws),
                  featured(Graph.from_edges(4, [(0, i) for i in (1, 2, 3)]), "real", draws)]
        stacks = [build_subgraph_stack(g, 2, 6) for g in graphs]
        assert len({s.members.shape[1] for s in stacks}) > 1
        split = SplitWalks(stacks[:3], 3)
        for ids in ([1, 0], [2, 0], [0, 1, 2], [1]):
            assert_batch_equals_own_stacks(split, stacks, ids)
        assert tables == [21]
        with pytest.raises(FeatureRowError, match="row 21 of 25 has nonzero entries"):
            SplitWalks(stacks, 3)
        assert tables == [21]


def horner_inputs(g: Graph, k: int, max_size: int, num_filters: int, size: int,
                  cap: int, seed: int):
    """Leaves ``s`` and ``w`` (the stacked blocks of ``num_filters`` filters
    of ``size`` nodes), a fixed cotangent, and the members and walk table
    that ``walk_horner_responses`` hands ``walk_horner`` for a walk cap of
    ``cap``."""
    stack = build_subgraph_stack(g, k, max_size)
    walks = anchor_walks(stack.blocks, cap)
    draws = np.random.default_rng(seed)
    cols = num_filters * size
    s = nk.Tensor(draws.normal(size=(g.n, cols)), requires_grad=True)
    w = nk.Tensor(draws.normal(size=(cols, size)) / size, requires_grad=True)
    cotangent = nk.Tensor(draws.normal(size=(g.n, cols)))
    return s, w, cotangent, stack.members, walks


# one bank: 1-3 filters of 1-5 nodes, walking as many steps as they have
# nodes (None) or 0-4 steps
banks = st.tuples(st.integers(1, 3), st.integers(1, 5), st.one_of(st.none(), st.integers(0, 4)))


class TestWalkHorner:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(shuffled_graphs(), st.integers(1, 3), st.integers(1, 10), banks,
           st.integers(0, 2 ** 32 - 1))
    def test_equals_per_step_composition(self, g, k, max_size, bank, seed):
        num_filters, size, cap = bank
        s, w, cotangent, members, walks = horner_inputs(
            g, k, max_size, num_filters, size, size if cap is None else cap, seed)
        results = []
        for op in (walk_horner, walk_horner_per_step):
            zero_grad(s, w)
            h = op(s, w, members, walks)
            nk.backward(tsum(h * cotangent))
            # at cap 0 the composition never uses w and leaves it no gradient
            results.append((h.values, s.grad,
                            np.zeros(w.shape) if w.grad is None else w.grad))
        (h, ds, dw), (h_ref, ds_ref, dw_ref) = results
        assert h.tobytes() == h_ref.tobytes()
        assert np.abs(ds - ds_ref).max() <= 1e-12 * np.abs(ds_ref).max()
        assert np.abs(dw - dw_ref).max() <= 1e-12 * np.abs(dw_ref).max()

    def test_gradients_match_finite_differences(self, rng):
        g = random_graph(7, 0.4, rng.derive(40))
        s, w, cotangent, members, walks = horner_inputs(g, 2, 5, 2, 3, 3, 41)
        assert members.shape[1] > 1

        def objective():
            return tsum(walk_horner(s, w, members, walks) * cotangent)

        assert finite_difference_check(objective, [s, w]) < 1e-6

    def test_shapes_checked(self, rng):
        g = random_graph(5, 0.5, rng.derive(42))
        s, w, _, members, walks = horner_inputs(g, 1, 4, 2, 2, 2, 43)
        with pytest.raises(ShapeError):
            walk_horner(s, w, members[:4], walks)
        with pytest.raises(ShapeError):
            walk_horner(s, nk.Tensor(w.values[:2]), members, walks)
        with pytest.raises(ShapeError):
            walk_horner(s, nk.Tensor(np.ones((4, 3))), members, walks)

    def test_graph_size_does_not_grow_with_walk_cap(self, rng):
        # rows that are neither constant nor one-hot: the walk sum is one node
        # however many steps it takes, and the filter bank's parameter chain
        # one chain however many filters it holds; a per-step or per-filter
        # chain would add nodes
        graphs = [random_graph(1 + i % 9, 0.45, rng.derive("gs", i), d=4) for i in range(12)]
        stack = build_stack([g.with_features(g.features + 0.25) for g in graphs], 1, 6)[0]
        encoder = FeatureEncoder.init(4, 4, rng.derive("ge"))
        counts = set()
        for walk_cap in (2, 6):
            walks = anchor_walks(stack.blocks, walk_cap)
            for num_filters in (1, 8):
                bank = FilterBank.init(num_filters, 3, 4, rng.derive("gb", num_filters))
                out = walk_horner_responses(stack.raw_features, stack.members, walks, bank,
                                            encoder)
                counts.add(autograd_nodes(tsum(out)))
        assert len(counts) == 1


def one_class_inputs(g: Graph, k: int, max_size: int, num_filters: int, size: int,
                     cap: int, seed: int):
    """Leaves for the stacked filter rows, the one encoded class row and the
    stacked filter adjacencies of ``num_filters`` filters of ``size`` nodes,
    a fixed cotangent, and the walk counts of ``g``'s neighbourhoods for a
    walk cap of ``cap``: the class table that ``kernel.walk_inputs`` builds
    for constant features, K = 1, asserted equal to the walk table's row
    sums byte for byte."""
    stack = build_subgraph_stack(g.with_features(np.ones((g.n, 1))), k, max_size)
    table = kernel.walk_inputs(stack, cap).table
    counts = np.ascontiguousarray(anchor_walks(stack.blocks, cap).sum(axis=2).T)
    assert table.tobytes() == counts[:, None, :].tobytes()
    draws = np.random.default_rng(seed)
    rows = nk.Tensor(draws.normal(size=(num_filters * size, 3)), requires_grad=True)
    shared = nk.Tensor(draws.normal(size=(1, 3)), requires_grad=True)
    adjacencies = nk.Tensor(draws.random((num_filters * size, size)), requires_grad=True)
    cotangent = nk.Tensor(draws.normal(size=(g.n, num_filters)))
    return rows, shared, adjacencies, cotangent, table


def one_class_walks(rows, shared, adjacencies, table, cap, row_local=False):
    """``numkit.class_walks`` with every row in class 0 of ``table``."""
    return nk.class_walks(rows, shared, adjacencies, table,
                          np.zeros(table.shape[0], dtype=np.int64), cap, row_local=row_local)


class TestClassWalksOneClass:
    """Constant features walk as one-hot rows of K = 1 class."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(shuffled_graphs(), st.integers(1, 3), st.integers(1, 10),
           st.tuples(st.integers(1, 4), st.integers(1, 5), st.one_of(st.none(), st.integers(0, 4))),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_equals_per_filter_chain(self, g, k, max_size, bank, row_local, seed):
        num_filters, size, cap = bank
        cap = size if cap is None else cap
        rows, shared, adjacencies, cotangent, table = one_class_inputs(
            g, k, max_size, num_filters, size, cap, seed)
        leaves = [rows, shared, adjacencies]
        results = []
        for op in (lambda: one_class_walks(rows, shared, adjacencies, table, cap, row_local),
                   lambda: rank_one_walks_chain(rows, shared, adjacencies, table[:, 0], cap)):
            zero_grad(*leaves)
            out = op()
            nk.backward(tsum(out * cotangent))
            # at cap 0 the chain never uses W and leaves it no gradient
            results.append([out.values] + [np.zeros(leaf.shape) if leaf.grad is None
                                           else leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gradients_match_finite_differences(self, rng):
        g = random_graph(7, 0.4, rng.derive(44))
        rows, shared, adjacencies, cotangent, table = one_class_inputs(g, 2, 5, 3, 3, 2, 45)

        def objective():
            return tsum(one_class_walks(rows, shared, adjacencies, table, 2) * cotangent)

        assert finite_difference_check(objective, [rows, shared, adjacencies]) < 1e-6

    def test_zero_steps_give_zero_adjacency_gradient(self, rng):
        g = random_graph(5, 0.5, rng.derive(46))
        rows, shared, adjacencies, cotangent, table = one_class_inputs(g, 1, 4, 2, 3, 0, 47)
        out = one_class_walks(rows, shared, adjacencies, table, 0)
        nk.backward(tsum(out * cotangent))
        assert adjacencies.grad is not None and not adjacencies.grad.any()
        assert np.abs(shared.grad).max() > 0.0

    def test_shapes_checked(self, rng):
        g = random_graph(5, 0.5, rng.derive(48))
        rows, shared, adjacencies, _, table = one_class_inputs(g, 1, 4, 2, 2, 2, 49)
        with pytest.raises(ShapeError):
            one_class_walks(rows, shared, adjacencies, table, 3)
        with pytest.raises(ShapeError):
            one_class_walks(rows, shared, nk.Tensor(adjacencies.values[:2]), table, 2)
        with pytest.raises(ShapeError):
            one_class_walks(rows, nk.Tensor(np.ones((1, 4))), adjacencies, table, 2)
        with pytest.raises(ShapeError):
            one_class_walks(rows, shared, nk.Tensor(np.ones((4, 3))), table, 2)


@st.composite
def onehot_graphs(draw, max_nodes=12, num_classes=5):
    """A ``shuffled_graphs`` graph whose feature rows are one-hot in
    ``num_classes`` columns. Classes are drawn per node, at most
    ``num_classes`` - 1 of them at times, so some are often absent."""
    g = draw(shuffled_graphs(max_nodes))
    top = draw(st.sampled_from([num_classes - 2, num_classes - 1]))
    hot = draw(st.lists(st.integers(0, top), min_size=g.n, max_size=g.n))
    return g.with_features(np.eye(num_classes)[hot])


def class_inputs(g: Graph, k: int, max_size: int, num_filters: int, size: int,
                 cap: int, seed: int):
    """Leaves for the stacked filter rows, the encoder weight and the stacked
    filter adjacencies (not symmetric) of ``num_filters`` filters of ``size``
    nodes, a fixed cotangent, ``g``'s stack with its walk table for a walk cap
    of ``cap``, and the class table of ``g``'s one-hot rows, summed over
    each neighbourhood by einsum."""
    stack = build_subgraph_stack(g, k, max_size)
    walks = anchor_walks(stack.blocks, cap)
    table = np.einsum("pvj,vjb->vbp", walks, g.features[stack.members])
    draws = np.random.default_rng(seed)
    rows = nk.Tensor(draws.normal(size=(num_filters * size, 3)), requires_grad=True)
    encoder = FeatureEncoder(nk.Tensor(draws.normal(size=(g.features.shape[1], 3)),
                                       requires_grad=True))
    adjacencies = nk.Tensor(draws.normal(size=(num_filters * size, size)) / size,
                            requires_grad=True)
    cotangent = nk.Tensor(draws.normal(size=(g.n, num_filters)))
    return rows, encoder, adjacencies, cotangent, stack, walks, table


def class_walks_of(rows, encoder, adjacencies, g, table, cap, row_local=False):
    """``numkit.class_walks`` over the encoded identity rows, as
    ``stack_responses`` calls it."""
    return nk.class_walks(rows, encoder.encode(np.eye(g.features.shape[1])), adjacencies,
                          table, np.argmax(g.features, axis=1), cap, row_local=row_local)


def horner_responses(rows, encoder, adjacencies, g, stack, walks):
    """The same responses from ``walk_horner`` over the encoded feature rows:
    s = encode(raw) rows^T, then s * h summed over each filter's columns."""
    s = encoder.encode(g.features) @ transpose(rows)
    h = walk_horner(s, adjacencies, stack.members, walks)
    return group_col_sums(s * h, adjacencies.shape[1])


class TestClassWalks:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(onehot_graphs(), st.integers(1, 3), st.integers(1, 10), banks, st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_walk_horner(self, g, k, max_size, bank, row_local, seed):
        num_filters, size, cap = bank
        cap = size if cap is None else cap
        rows, encoder, adjacencies, cotangent, stack, walks, table = class_inputs(
            g, k, max_size, num_filters, size, cap, seed)
        leaves = [rows, encoder.weight, adjacencies]
        results = []
        for op in (lambda: class_walks_of(rows, encoder, adjacencies, g, table, cap, row_local),
                   lambda: horner_responses(rows, encoder, adjacencies, g, stack, walks)):
            zero_grad(*leaves)
            out = op()
            nk.backward(tsum(out * cotangent))
            results.append([out.values] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if cap == 0:
            assert not results[0][3].any()

    def test_row_local_rows_round_as_alone(self, rng):
        # each row of a stack equals the same row of a stack of its own
        g = random_graph(9, 0.4, rng.derive(50)).with_features(
            np.eye(4)[rng.derive(51).integers(0, 4, size=9)])
        rows, encoder, adjacencies, _, _, _, table = class_inputs(g, 2, 6, 3, 4, 4, 52)
        shared = encoder.encode(np.eye(4))
        classes = np.argmax(g.features, axis=1)
        out = nk.class_walks(rows, shared, adjacencies, table, classes, 4, row_local=True)
        for v in range(9):
            alone = nk.class_walks(rows, shared, adjacencies, table[v:v + 1],
                                   classes[v:v + 1], 4, row_local=True)
            assert alone.values.tobytes() == out.values[v:v + 1].tobytes()

    def test_gradients_match_finite_differences(self, rng):
        g = random_graph(7, 0.4, rng.derive(53)).with_features(
            np.eye(4)[[0, 1, 1, 3, 0, 1, 3]])
        rows, encoder, adjacencies, cotangent, _, _, table = class_inputs(
            g, 2, 5, 3, 3, 2, 54)
        assert not table[:, 2].any()

        def objective():
            return tsum(class_walks_of(rows, encoder, adjacencies, g, table, 2) * cotangent)

        assert finite_difference_check(
            objective, [rows, encoder.weight, adjacencies]) < 1e-6

    def test_zero_steps_give_zero_adjacency_gradient(self, rng):
        g = random_graph(5, 0.5, rng.derive(55)).with_features(np.eye(3)[[0, 2, 2, 1, 0]])
        rows, encoder, adjacencies, cotangent, _, _, table = class_inputs(
            g, 1, 4, 2, 3, 0, 56)
        out = class_walks_of(rows, encoder, adjacencies, g, table, 0)
        nk.backward(tsum(out * cotangent))
        assert adjacencies.grad is not None and not adjacencies.grad.any()
        assert np.abs(encoder.weight.grad).max() > 0.0

    def test_shapes_checked(self, rng):
        g = random_graph(5, 0.5, rng.derive(57)).with_features(np.eye(3)[[0, 2, 2, 1, 0]])
        rows, encoder, adjacencies, _, _, _, table = class_inputs(g, 1, 4, 2, 2, 2, 58)
        shared = encoder.encode(np.eye(3))
        classes = np.array([0, 2, 2, 1, 0])
        with pytest.raises(ShapeError):
            nk.class_walks(rows, shared, adjacencies, table, classes, 3)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, shared, adjacencies, table, classes[:4], 2)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, shared, adjacencies, table, classes + 1, 2)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, shared, adjacencies, table, classes - 1, 2)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, encoder.encode(np.eye(2)), adjacencies, table[:, :2],
                           classes, 2)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, nk.Tensor(np.ones((3, 4))), adjacencies, table, classes, 2)
        with pytest.raises(ShapeError):
            nk.class_walks(rows, shared, nk.Tensor(np.ones((4, 3))), table, classes, 2)


class TestFilterBank:
    """The bank's responses against ``stack_responses_per_filter``, the
    per-filter chain (for constant rows, each filter's rank-one chain):
    within 1e-12 relative, for one-hot and constant rows, which the package
    walks in class space, and for ``walk_horner_responses`` over continuous
    rows, which the package refuses, summed over each filter's own block,
    rather than over the dense block-diagonal product."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(shuffled_graphs(max_nodes=8), min_size=1, max_size=3),
           st.integers(1, 2), st.integers(1, 6), banks, st.integers(1, 4),
           st.sampled_from(["constant", "onehot", "continuous"]),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_per_filter_chain(self, graphs, k, max_size, shape, embed_dim,
                                     features, seed):
        num_filters, size, walk_cap = shape
        draws = Rng(seed)
        if features == "constant":
            graphs = [g.with_features(np.ones((g.n, 1))) for g in graphs]
        elif features == "onehot":
            graphs = [g.with_features(np.eye(3)[draws.derive("x", i).integers(0, 3, size=g.n)])
                      for i, g in enumerate(graphs)]
        stack = build_stack(graphs, k, max_size)[0]
        filters = [GraphFilter.init(size, embed_dim, draws.derive("f", f))
                   for f in range(num_filters)]
        encoder = FeatureEncoder.init(graphs[0].features.shape[1], embed_dim, draws.derive("e"))
        cotangent = nk.Tensor(draws.normal(size=(stack.num_nodes, num_filters)))
        bank = bank_of(filters)
        if features == "continuous":
            walks = anchor_walks(stack.blocks, size if walk_cap is None else walk_cap)
            out = walk_horner_responses(stack.raw_features, stack.members, walks, bank, encoder)
        else:
            out = stack_responses_of(stack, bank, encoder, walk_cap)
        nk.backward(tsum(out * cotangent))
        got = [out.values, grad(encoder.weight)] + [grad(p) for p in bank.parameters()]
        zero_grad(encoder.weight)
        out = stack_responses_per_filter(stack, filters, encoder, walk_cap)
        nk.backward(tsum(out * cotangent))
        want = [out.values, grad(encoder.weight)] + [
            np.vstack([grad(p) for p in group])
            for group in ([f.adjacency_logits for f in filters], [f.features for f in filters])]
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def grad(leaf: nk.Tensor) -> np.ndarray:
    """The leaf's gradient, zero where backward left none."""
    return np.zeros(leaf.shape) if leaf.grad is None else leaf.grad
