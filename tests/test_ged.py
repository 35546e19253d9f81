import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn.errors import CapacityError
from xgkn.ged import binarize_filter, ged_exact, ged_normalized, unique_rows
from xgkn.graphs import Graph
from xgkn.kernel import FilterBank
from xgkn import numkit as nk

from conftest import cycle_graph, house_graph, path_graph, random_graph
from oracles import ged_bruteforce, is_isomorphic_bruteforce


def single_node(feature=1.0):
    return Graph(np.zeros((1, 1)), np.array([[feature]]), np.arange(1))


@st.composite
def binary_graphs(draw, min_nodes=0, max_nodes=6):
    """Random undirected graph with one binary feature per node."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n))
    adj[np.triu_indices(n, 1)] = edges
    features = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    return Graph(adj + adj.T, np.array(features).reshape(n, 1), np.arange(n))


class TestGedExact:
    def test_identical_graphs(self):
        g = house_graph()
        assert ged_exact(g, g) == 0.0

    def test_node_plus_edge_insertion(self):
        # grow a single node into a 2-node edge graph: insert node + insert edge
        assert ged_exact(single_node(), path_graph(2)) == pytest.approx(2.0)

    def test_feature_substitution(self):
        assert ged_exact(single_node(1.0), single_node(2.0)) == pytest.approx(1.0)

    # each example checks one arbitrary pair and one pair shaped like A2's
    # inputs: a binarized 6-node filter against a ba2motifs motif. The
    # exhaustive oracle takes about 20 ms for a 6-node filter against a
    # 5-node motif, and 50 ms for two 6-node graphs (13,327 maps)
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(binary_graphs(), binary_graphs(), binary_graphs(min_nodes=6),
           st.sampled_from([house_graph(), cycle_graph(5)]))
    def test_matches_bruteforce_on_random_corpus(self, g1, g2, filt, motif):
        for a, b in ((g1, g2), (filt, motif)):
            expected = ged_bruteforce(a.adjacency, a.features, b.adjacency, b.features)
            assert ged_exact(a, b) == expected

    # A2 passes integer cutoffs; fractional and infinite ones are checked too
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(binary_graphs(), binary_graphs(),
           st.one_of(st.integers(0, 14), st.floats(0.0, 14.0), st.just(math.inf)))
    def test_cutoff_is_exact_below_and_a_lower_bound_above(self, g1, g2, cutoff):
        expected = ged_bruteforce(g1.adjacency, g1.features, g2.adjacency, g2.features)
        value = ged_exact(g1, g2, cutoff)
        if expected < cutoff:
            assert value == expected
        else:
            assert cutoff <= value <= expected

    def test_symmetry(self, rng):
        for trial in range(10):
            g1 = random_graph(4, 0.5, rng.derive("s", trial), d=1, binary_features=True)
            g2 = random_graph(3, 0.5, rng.derive("t", trial), d=1, binary_features=True)
            assert ged_exact(g1, g2) == pytest.approx(ged_exact(g2, g1), abs=1e-9)

    def test_zero_iff_isomorphic_on_small_corpus(self, rng):
        graphs = [random_graph(3, 0.5, rng.derive("i", t), d=1) for t in range(8)]
        for g in graphs:
            g_constant = g.with_features(np.ones((g.n, 1)))
            for h in graphs:
                h_constant = h.with_features(np.ones((h.n, 1)))
                distance = ged_exact(g_constant, h_constant)
                iso = is_isomorphic_bruteforce(g_constant.adjacency, h_constant.adjacency)
                assert (distance == 0.0) == iso

    def test_triangle_inequality_on_small_corpus(self, rng):
        graphs = [random_graph(int(rng.integers(1, 5)), 0.5, rng.derive("tri", t),
                               d=1, binary_features=True) for t in range(6)]
        distances = {}
        for i, a in enumerate(graphs):
            for j, b in enumerate(graphs):
                distances[i, j] = ged_exact(a, b)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-9

    def test_capacity_cap(self):
        big = cycle_graph(13)
        with pytest.raises(CapacityError):
            ged_exact(big, big)

    def test_house_vs_cycle_runtime_and_value(self):
        t0 = time.time()
        d = ged_exact(house_graph(), cycle_graph(5))
        elapsed = time.time() - t0
        # the house is a 5-cycle (2-3-0-4-1-2) plus the chord 0-1, so one
        # edge deletion suffices; confirmed by the exhaustive oracle
        assert d == pytest.approx(ged_bruteforce(
            house_graph().adjacency, house_graph().features,
            cycle_graph(5).adjacency, cycle_graph(5).features))
        assert d == pytest.approx(1.0)
        assert elapsed < 2.0


class TestGedNormalized:
    def test_identical_is_zero(self):
        g = cycle_graph(4)
        assert ged_normalized(g, g) == 0.0

    def test_single_node_feature_mismatch(self):
        # substitution 1 over worst case delete(1) + insert(1)
        assert ged_normalized(single_node(1.0), single_node(2.0)) == pytest.approx(0.5)

    def test_bounded_on_random_corpus(self, rng):
        for trial in range(30):
            g1 = random_graph(int(rng.integers(1, 5)), 0.5, rng.derive("n", trial),
                              d=1, binary_features=True)
            g2 = random_graph(int(rng.integers(1, 5)), 0.5, rng.derive("m", trial),
                              d=1, binary_features=True)
            value = ged_normalized(g1, g2)
            assert 0.0 <= value <= 1.0

    def test_two_empty_graphs(self):
        empty = Graph(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros(0, dtype=int))
        assert ged_normalized(empty, empty) == 0.0


class TestBinarizeFilter:
    def make_filter(self, weights):
        """A bank of one filter with these effective weights (up to rounding
        of the logit round trip), as the adjacency and feature blocks that
        A2 hands ``binarize_filter``."""
        size = weights.shape[0]
        logits = np.log(weights / (1 - weights) + 1e-300)
        bank = FilterBank(nk.Tensor(logits), nk.Tensor(np.ones((size, 2))))
        return bank.adjacency_values()[0], bank.features.values

    def test_high_weights_give_complete_graph(self):
        w = np.full((4, 4), 0.9)
        np.fill_diagonal(w, 0.5)
        g = binarize_filter(*self.make_filter(w))
        assert g.num_edges() == 6

    def test_low_weights_give_empty_graph(self):
        w = np.full((4, 4), 0.1)
        np.fill_diagonal(w, 0.5)
        g = binarize_filter(*self.make_filter(w))
        assert g.num_edges() == 0

    def test_threshold_is_inclusive_at_half(self):
        w = np.array([[0.5, 0.4], [0.4, 0.5]])
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.5)
        filt = self.make_filter(np.array([[0.5, 0.6], [0.6, 0.5]]))
        g = binarize_filter(*filt)
        assert g.num_edges() == 1

    def test_features_snap_to_nearest_row(self):
        from xgkn.kernel import FeatureEncoder
        features = np.array([[0.9, 0.1], [0.2, 0.8]])
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        encoder = FeatureEncoder(nk.Tensor(np.eye(2)))
        g = binarize_filter(np.full((2, 2), 0.5), features, feature_rows=rows,
                            encoder=encoder)
        assert np.allclose(g.features, [[1.0, 0.0], [0.0, 1.0]])

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(1, 4), st.data())
    def test_unique_rows_equals_numpy_unique(self, d, data):
        # few values per entry, so rows repeat and share prefixes
        entries = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                     max_size=20 * d))
        rows = np.array(entries[:len(entries) // d * d]).reshape(-1, d)
        assert unique_rows(rows).tobytes() == np.unique(rows, axis=0).tobytes()

    def test_snapping_requires_encoder(self):
        with pytest.raises(ValueError):
            binarize_filter(np.full((2, 2), 0.5), np.ones((2, 2)),
                            feature_rows=np.ones((2, 2)))
