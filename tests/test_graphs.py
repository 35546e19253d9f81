import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xgkn.errors import (
    EmptySelectionError,
    FeatureDimError,
    IncompatibleSetsError,
    InvalidNodeError,
)
from xgkn.graphs import (
    Graph,
    NodeSet,
    Rng,
    induced_subgraph,
    iou_nodes,
    k_hop_neighborhood,
    perturb_edges,
    perturb_features,
)

from conftest import cycle_graph, house_graph, path_graph, random_graph, star_graph
from oracles import (
    bfs_hop_distances,
    direct_product,
    perturb_edges_loop,
    perturb_features_loop,
    product_edges_bruteforce,
)
from test_kernel import shuffled_graphs


class TestGraphInvariants:
    def test_rejects_asymmetric_adjacency(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        with pytest.raises(ValueError):
            Graph(adj, np.ones((2, 1)), np.arange(2))

    def test_rejects_nonzero_diagonal(self):
        adj = np.eye(3)
        with pytest.raises(ValueError):
            Graph(adj, np.ones((3, 1)), np.arange(3))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(FeatureDimError):
            Graph(np.zeros((3, 3)), np.ones((2, 1)), np.arange(3))

    def test_rejects_duplicate_node_ids(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 2)), np.ones((2, 1)), np.array([1, 1]))

    def test_arrays_are_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0


class TestInducedSubgraph:
    def test_path_restriction(self):
        # 3-node path 0-1-2, keep {0, 1} -> single edge
        g = path_graph(3)
        sub = induced_subgraph(g, NodeSet((0, 1)))
        assert sub.n == 2
        assert sub.num_edges() == 1
        assert list(sub.node_ids) == [0, 1]

    def test_full_set_is_identity_up_to_relabeling(self):
        g = random_graph(8, 0.4, Rng(3))
        sub = induced_subgraph(g, NodeSet(tuple(range(8))))
        assert np.array_equal(sub.adjacency, g.adjacency)
        assert np.array_equal(sub.features, g.features)

    def test_house_roof_nodes_form_triangle(self):
        # derived by listing the generator's house edges: the roof node and the
        # two square corners it joins are mutually connected
        g = house_graph()
        roof = induced_subgraph(g, NodeSet((0, 1, 4)))
        assert roof.n == 3
        assert roof.num_edges() == 3

    def test_unknown_id_raises(self):
        with pytest.raises(InvalidNodeError):
            induced_subgraph(path_graph(3), NodeSet((0, 7)))

    def test_unknown_id_is_named(self):
        with pytest.raises(InvalidNodeError, match="node id 9 not"):
            induced_subgraph(path_graph(4), NodeSet((1, 9, 12)))

    def test_empty_set_raises(self):
        with pytest.raises(EmptySelectionError):
            induced_subgraph(path_graph(3), NodeSet(()))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(shuffled_graphs(), st.data())
    def test_shuffled_ids_select_their_positions(self, g, data):
        ids = data.draw(st.lists(st.sampled_from(g.node_ids.tolist()), min_size=1,
                                 unique=True))
        sub = induced_subgraph(g, NodeSet(tuple(ids)))
        positions = [g.position_of(i) for i in sorted(ids)]
        assert sub.adjacency.tobytes() == g.adjacency[np.ix_(positions, positions)].tobytes()
        assert sub.features.tobytes() == g.features[positions].tobytes()
        assert sub.node_ids.tolist() == sorted(ids)

    def test_nested_induction_keeps_root_ids(self):
        g = path_graph(5)
        sub = induced_subgraph(g, NodeSet((1, 2, 3)))
        subsub = induced_subgraph(sub, NodeSet((2, 3)))
        assert list(subsub.node_ids) == [2, 3]


class TestKHopNeighborhood:
    def test_star_center_one_hop_is_whole_star(self):
        g = star_graph(6)
        nb = k_hop_neighborhood(g, 0, k=1, max_size=100)
        assert nb.n == 7
        assert nb.anchor == 0
        assert int(nb.node_ids[0]) == 0

    def test_path_middle_one_hop(self):
        g = path_graph(5)
        nb = k_hop_neighborhood(g, 2, k=1, max_size=100)
        assert sorted(int(i) for i in nb.node_ids) == [1, 2, 3]
        assert int(nb.node_ids[0]) == 2

    def test_matches_bfs_oracle_with_tie_break(self):
        rng = Rng(99)
        for trial in range(10):
            g = random_graph(20, 0.15, rng.derive(trial))
            v = int(rng.integers(0, 20))
            nb = k_hop_neighborhood(g, v, k=2, max_size=10)
            dist = bfs_hop_distances(g.adjacency, v)
            in_range = sorted(
                (d, node) for node, d in dist.items() if d <= 2
            )
            expected = [node for _, node in in_range[:10]]
            assert sorted(int(i) for i in nb.node_ids) == sorted(expected)
            assert int(nb.node_ids[0]) == v

    def test_invalid_node_raises(self):
        with pytest.raises(InvalidNodeError):
            k_hop_neighborhood(path_graph(3), 9, k=1, max_size=5)

    def test_anchor_always_kept_when_capped(self):
        g = star_graph(8)
        nb = k_hop_neighborhood(g, 0, k=1, max_size=3)
        assert nb.n == 3
        assert int(nb.node_ids[0]) == 0


class TestDirectProduct:
    def test_single_times_single(self):
        g = Graph.from_edges(1, [])
        prod, index_map = direct_product(g, g)
        assert prod.n == 1
        assert prod.num_edges() == 0
        assert index_map == {(0, 0): 0}

    def test_edge_times_edge(self):
        g = path_graph(2)
        prod, index_map = direct_product(g, g)
        assert prod.n == 4
        edges = {tuple(sorted(e)) for e in prod.edge_list()}
        e1 = tuple(sorted((index_map[(0, 0)], index_map[(1, 1)])))
        e2 = tuple(sorted((index_map[(0, 1)], index_map[(1, 0)])))
        assert edges == {e1, e2}

    def test_triangle_times_edge(self):
        tri = cycle_graph(3)
        edge = path_graph(2)
        prod, _ = direct_product(tri, edge)
        assert prod.n == 6
        assert prod.num_edges() == 6

    def test_matches_bruteforce_pair_enumeration(self):
        rng = Rng(7)
        for trial in range(10):
            g1 = random_graph(int(rng.integers(2, 6)), 0.5, rng.derive("a", trial))
            g2 = random_graph(int(rng.integers(2, 6)), 0.5, rng.derive("b", trial))
            prod, index_map = direct_product(g1, g2)
            assert prod.n == g1.n * g2.n
            expected = product_edges_bruteforce(g1.adjacency, g2.adjacency)
            assert prod.num_edges() == len(expected)
            for (pa, pb), w in expected.items():
                ia, ib = index_map[pa], index_map[pb]
                assert prod.adjacency[ia, ib] == pytest.approx(w)

    def test_weighted_product_multiplies_weights(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        g1 = Graph(a, np.ones((2, 1)), np.arange(2))
        g2 = path_graph(2)
        prod, index_map = direct_product(g1, g2)
        i = index_map[(0, 0)]
        j = index_map[(1, 1)]
        assert prod.adjacency[i, j] == pytest.approx(0.5)


class TestIouNodes:
    def test_identity(self):
        s = NodeSet((1, 2, 3))
        assert iou_nodes(s, s) == 1.0

    def test_disjoint(self):
        assert iou_nodes(NodeSet((1, 2)), NodeSet((3, 4))) == 0.0

    def test_partial_overlap(self):
        # 2 common over 4 in the union
        assert iou_nodes(NodeSet((1, 2, 3)), NodeSet((2, 3, 4))) == 0.5

    def test_both_empty_is_one(self):
        assert iou_nodes(NodeSet(()), NodeSet(())) == 1.0

    def test_symmetric(self):
        a, b = NodeSet((1, 5, 9)), NodeSet((5, 6))
        assert iou_nodes(a, b) == iou_nodes(b, a)

    def test_mismatched_roots_raise(self):
        with pytest.raises(IncompatibleSetsError):
            iou_nodes(NodeSet((1,), root=0), NodeSet((1,), root=1))


class TestPerturbFeatures:
    def test_near_zero_delta_changes_nothing(self):
        g = random_graph(10, 0.3, Rng(1), d=2)
        pool = np.ones((4, 2)) * 9.0
        out = perturb_features(g, 1e-9, pool, Rng(5))
        assert np.array_equal(out.features, g.features)

    def test_monte_carlo_change_fraction(self):
        # binomial concentration: delta=0.5 over 1000 nodes
        n = 1000
        g = Graph(np.zeros((n, n)), np.zeros((n, 1)), np.arange(n))
        pool = np.ones((1, 1))
        out = perturb_features(g, 0.5, pool, Rng(42))
        changed = float(np.mean(out.features != 0.0))
        assert abs(changed - 0.5) <= 0.05

    def test_exclusion_set_dominates(self):
        g = random_graph(8, 0.3, Rng(2), d=2)
        pool = np.full((3, 2), 7.0)
        out = perturb_features(g, 0.9, pool, Rng(3),
                               exclude=NodeSet(tuple(range(8))))
        assert np.array_equal(out.features, g.features)

    def test_structure_unchanged(self):
        g = random_graph(8, 0.4, Rng(8), d=2)
        out = perturb_features(g, 0.7, np.zeros((2, 2)), Rng(4))
        assert np.array_equal(out.adjacency, g.adjacency)

    def test_dimension_mismatch_raises(self):
        g = random_graph(4, 0.5, Rng(6), d=2)
        with pytest.raises(FeatureDimError):
            perturb_features(g, 0.5, np.ones((2, 5)), Rng(7))

    def test_deterministic_replay(self):
        g = random_graph(12, 0.3, Rng(11), d=3)
        pool = Rng(13).normal(size=(6, 3))
        a = perturb_features(g, 0.4, pool, Rng(77))
        b = perturb_features(g, 0.4, pool, Rng(77))
        assert np.array_equal(a.features, b.features)


    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(shuffled_graphs(), st.sampled_from([0.05, 0.5, 0.95]), st.integers(0, 2**32 - 1),
           st.none() | st.lists(st.integers(0, 120), max_size=12))
    def test_equals_node_loop(self, g, delta, seed, exclude):
        pool = np.arange(12.0).reshape(6, 2)[:, :1] - 3.0
        exclude = None if exclude is None else NodeSet(tuple(set(exclude)))
        rng, loop_rng = Rng(seed), Rng(seed)
        out = perturb_features(g, delta, pool, rng, exclude=exclude)
        want = perturb_features_loop(g, delta, pool, loop_rng, exclude=exclude)
        assert out.features.tobytes() == want.features.tobytes()
        assert out.adjacency.tobytes() == g.adjacency.tobytes()
        assert out.node_ids.tobytes() == g.node_ids.tobytes()
        # the same draws: both streams are left in the same state
        assert rng.random() == loop_rng.random()


class TestPerturbEdges:
    def test_near_certain_removal_empties_triangle(self):
        tri = cycle_graph(3)
        out = perturb_edges(tri, 1e-9, 0.999, Rng(5))
        assert out.num_edges() <= 1

    def test_monte_carlo_removal_fraction(self):
        # ~1000-edge graph, remove at 0.1: binomial concentration
        rng = Rng(21)
        g = random_graph(50, 0.8, rng)
        before = g.num_edges()
        out = perturb_edges(g, 1e-12, 0.1, Rng(22))
        removed = (before - out.num_edges()) / before
        assert abs(removed - 0.1) <= 0.03

    def test_protected_edges_survive(self):
        g = cycle_graph(6)
        protected = {tuple(sorted(e)) for e in g.edge_list()}
        out = perturb_edges(g, 1e-9, 0.999, Rng(9), protected=protected)
        assert set(out.edge_list()) >= set(g.edge_list())

    def test_result_symmetric_zero_diagonal(self):
        g = random_graph(15, 0.2, Rng(31))
        out = perturb_edges(g, 0.3, 0.3, Rng(32))
        assert np.array_equal(out.adjacency, out.adjacency.T)
        assert np.all(np.diagonal(out.adjacency) == 0.0)

    def test_deterministic_replay(self):
        g = random_graph(15, 0.2, Rng(33))
        a = perturb_edges(g, 0.2, 0.2, Rng(44))
        b = perturb_edges(g, 0.2, 0.2, Rng(44))
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            perturb_edges(cycle_graph(3), 0.0, 0.5, Rng(1))

    # protected pairs name edges, non-edges and ids outside the graph, in
    # either order
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(shuffled_graphs(), st.sampled_from([0.05, 0.3, 0.7]),
           st.sampled_from([0.05, 0.5, 0.95]), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 120), st.integers(0, 120)), max_size=30))
    def test_equals_pair_loop(self, g, delta_add, delta_remove, seed, extra):
        edges = g.edge_list()
        protected = {(b, a) if k % 2 else (a, b) for k, (a, b) in enumerate(edges[::2])}
        protected |= set(extra)
        for prot in (None, protected):
            out = perturb_edges(g, delta_add, delta_remove, Rng(seed), protected=prot)
            want = perturb_edges_loop(g, delta_add, delta_remove, Rng(seed), protected=prot)
            assert out.adjacency.tobytes() == want.adjacency.tobytes()
            assert out.node_ids.tobytes() == g.node_ids.tobytes()
            # built unchecked, but it passes every check of a new Graph
            Graph(out.adjacency, out.features, out.node_ids, label=out.label)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).random(10)
        b = Rng(7).random(10)
        assert np.array_equal(a, b)

    def test_derived_streams_are_independent(self):
        master = Rng(7)
        a = master.derive("alpha").random(5)
        b = master.derive("beta").random(5)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(7).derive("alpha").random(5))

    # SeedSequence splits every int into uint32 words, low word first; these
    # values sit on the word boundaries
    EDGE_KEYS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(EDGE_KEYS | st.integers(2**64, 2**96), st.lists(EDGE_KEYS, max_size=4),
           st.lists(st.text(max_size=3), max_size=2))
    def test_entropy_words_give_the_pool_of_the_ints(self, seed, keys, names):
        # the word-list seeding against SeedSequence of the int tuple it replaced
        rng = Rng(seed).derive(*names).derive(*keys)
        want = np.random.SeedSequence((seed, *rng.stream))
        assert rng.stream[len(names):] == tuple(keys)
        assert rng._gen.bit_generator.seed_seq.pool.tobytes() == want.pool.tobytes()
        assert rng.random(3).tobytes() == \
            np.random.Generator(np.random.PCG64(want)).random(3).tobytes()

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Rng(-1)
