import os
from pathlib import Path

import numpy as np
import pytest

from xgkn.data import (
    Dataset,
    apply_feature_policy,
    cycle_motif,
    generate_ba2motifs,
    generate_bamultishapes,
    grid_motif,
    house_motif,
    load_ground_truth_masks,
    parse_tu_dataset,
    stratified_split,
    wheel_motif,
)
from xgkn.errors import CapacityError, DatasetFormatError, SplitError
from xgkn.graphs import Graph, Rng, induced_subgraph
from xgkn.kernel import MAX_BLOCK_ENTRIES
from xgkn.record import replace

from conftest import path_graph, star_graph, with_label
from oracles import bfs_hop_distances, is_isomorphic_bruteforce, write_tu_dataset


TU_FIXTURE = {
    # triangle (nodes 1-3, label 0) and 3-path (nodes 4-6, label 1)
    "A": "1, 2\n2, 1\n1, 3\n3, 1\n2, 3\n3, 2\n4, 5\n5, 4\n5, 6\n6, 5\n",
    "graph_indicator": "1\n1\n1\n2\n2\n2\n",
    "graph_labels": "3\n7\n",
}


def write_fixture(tmp_path, name="FIX", overrides=None):
    files = dict(TU_FIXTURE)
    if overrides:
        files.update(overrides)
    for suffix, content in files.items():
        (tmp_path / f"{name}_{suffix}.txt").write_text(content)
    return tmp_path


class TestParseTu:
    def test_minimal_fixture(self, tmp_path):
        ds = parse_tu_dataset(str(write_fixture(tmp_path)), "FIX")
        assert len(ds) == 2
        assert ds.num_classes == 2
        assert ds.graphs[0].num_edges() == 3
        assert ds.graphs[1].num_edges() == 2
        assert [g.label for g in ds.graphs] == [0, 1]

    def test_node_labels_become_onehot(self, tmp_path):
        write_fixture(tmp_path, overrides={"node_labels": "0\n1\n1\n2\n0\n2\n"})
        ds = parse_tu_dataset(str(tmp_path), "FIX")
        assert ds.feature_dim == 3
        assert np.allclose(ds.graphs[0].features.sum(axis=1), 1.0)
        assert ds.feature_policy == "node_labels"

    def test_indicator_gap_is_format_error(self, tmp_path):
        write_fixture(tmp_path, overrides={"graph_indicator": "1\n1\n1\n3\n3\n3\n",
                                           "graph_labels": "3\n7\n5\n"})
        with pytest.raises(DatasetFormatError):
            parse_tu_dataset(str(tmp_path), "FIX")

    def test_cross_graph_edge_is_format_error(self, tmp_path):
        write_fixture(tmp_path, overrides={"A": "1, 2\n3, 4\n"})
        with pytest.raises(DatasetFormatError):
            parse_tu_dataset(str(tmp_path), "FIX")

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_tu_dataset(str(tmp_path), "NOPE")

    def test_graph_above_the_dense_cap_refused_before_allocating(self, tmp_path,
                                                                  monkeypatch):
        # 5000^2 entries exceed MAX_BLOCK_ENTRIES; no graph is built at all
        assert 5000 ** 2 > MAX_BLOCK_ENTRIES
        write_fixture(tmp_path, overrides={"A": "1, 2\n", "graph_indicator": "1\n" * 5000,
                                           "graph_labels": "0\n"})

        def refuse(*args, **kwargs):
            raise AssertionError("Graph.from_edges called")

        monkeypatch.setattr(Graph, "from_edges", refuse)
        with pytest.raises(CapacityError, match="graph 1 of FIX has 5000 nodes"):
            parse_tu_dataset(str(tmp_path), "FIX")

    def test_mutag_when_available(self):
        candidates = [Path("data/MUTAG")]
        if os.environ.get("XGKN_MUTAG_DIR"):
            candidates.insert(0, Path(os.environ["XGKN_MUTAG_DIR"]))
        directory = next((c for c in candidates if (c / "MUTAG_A.txt").exists()), None)
        if directory is None:
            pytest.skip("MUTAG files not present")
        ds = parse_tu_dataset(str(directory), "MUTAG")
        assert len(ds) == 188
        assert ds.num_classes == 2

    def test_round_trip(self, tmp_path):
        # every graph uses all three labels, so the parser's one-hot columns
        # are the written ones
        ds = generate_ba2motifs(6, Rng(5))
        ds = replace(ds, graphs=tuple(g.with_features(np.eye(3)[np.arange(g.n) % 3])
                                      for g in ds.graphs))
        write_tu_dataset(ds, str(tmp_path), "GEN")
        back = parse_tu_dataset(str(tmp_path), "GEN")
        assert len(back) == len(ds)
        assert back.feature_policy == "node_labels"
        for a, b in zip(ds.graphs, back.graphs):
            assert a.label == b.label
            assert np.array_equal(a.adjacency, b.adjacency)
            assert np.array_equal(a.features, b.features)


class TestBa2Motifs:
    def test_shape_and_connectivity(self):
        ds = generate_ba2motifs(20, Rng(0))
        for i, g in enumerate(ds.graphs):
            assert g.n == 25
            assert len(bfs_hop_distances(g.adjacency, 0)) == 25

    def test_class_balance(self):
        ds = generate_ba2motifs(30, Rng(1))
        labels = ds.labels()
        assert int((labels == 0).sum()) == 15
        assert int((labels == 1).sum()) == 15

    def test_masks_induce_reference_motifs(self):
        ds = generate_ba2motifs(10, Rng(2))
        refs = {0: house_motif(), 1: cycle_motif(5)}
        for i, g in enumerate(ds.graphs):
            mask = ds.gt_instance_masks[i]
            assert len(mask) == 5
            sub = induced_subgraph(g, mask)
            assert is_isomorphic_bruteforce(sub.adjacency, refs[g.label].adjacency)

    def test_constant_features(self):
        ds = generate_ba2motifs(4, Rng(3))
        for g in ds.graphs:
            assert np.array_equal(g.features, np.ones((25, 1)))

    def test_seed_determinism(self):
        a = generate_ba2motifs(8, Rng(9))
        b = generate_ba2motifs(8, Rng(9))
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.adjacency, gb.adjacency)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            generate_ba2motifs(7, Rng(0))


class TestBaMultiShapes:
    # planted subsets are identified by their distinctive mask sizes:
    # 0, 5 (house), 7 (wheel), 9 (grid), 12, 14, 16, 21
    SIZES_CLASS0 = {0, 5, 7, 9, 21}
    SIZES_CLASS1 = {12, 14, 16}

    def test_plain_base_graph_has_empty_mask_and_class0(self):
        ds = generate_bamultishapes(200, Rng(4))
        plains = [i for i, m in enumerate(ds.gt_instance_masks) if len(m) == 0]
        assert plains
        for i in plains:
            assert ds.graphs[i].label == 0

    def test_mask_sizes_match_classes(self):
        ds = generate_bamultishapes(200, Rng(4))
        for i, g in enumerate(ds.graphs):
            size = len(ds.gt_instance_masks[i])
            if g.label == 0:
                assert size in self.SIZES_CLASS0
            else:
                assert size in self.SIZES_CLASS1

    def test_house_plus_wheel_masks_occur(self):
        ds = generate_bamultishapes(200, Rng(4))
        assert any(len(m) == 12 for m in ds.gt_instance_masks)

    def test_all_eight_patterns_occur(self):
        ds = generate_bamultishapes(200, Rng(4))
        sizes = {len(m) for m in ds.gt_instance_masks}
        assert sizes == self.SIZES_CLASS0 | self.SIZES_CLASS1

    def test_single_wheel_mask_is_isomorphic_to_wheel(self):
        ds = generate_bamultishapes(100, Rng(5))
        idx = next(i for i, m in enumerate(ds.gt_instance_masks) if len(m) == 7)
        sub = induced_subgraph(ds.graphs[idx], ds.gt_instance_masks[idx])
        assert is_isomorphic_bruteforce(sub.adjacency, wheel_motif(6).adjacency)

    def test_motif_graphs_are_valid(self):
        for motif in (house_motif(), grid_motif(3), wheel_motif(6)):
            assert np.array_equal(motif.adjacency, motif.adjacency.T)
            assert np.all(np.diagonal(motif.adjacency) == 0)


class TestFeaturePolicies:
    @pytest.mark.parametrize("policy", ["degree", "none"])
    def test_removed_policies_refused(self, policy):
        # scalar degree rows are not one-hot; "none" was an
        # alias of "constant"
        ds = Dataset(graphs=(with_label(path_graph(3), 0),), num_classes=1)
        with pytest.raises(ValueError, match=f"unknown feature policy '{policy}'"):
            apply_feature_policy(ds, policy)

    def test_constant_policy(self):
        ds = generate_ba2motifs(4, Rng(1))
        out = apply_feature_policy(ds, "constant")
        for g in out.graphs:
            assert np.array_equal(g.features, np.ones((g.n, 1)))

    def test_degree_onehot_clamps_to_cap(self):
        ds = Dataset(graphs=(with_label(star_graph(7), 0), with_label(star_graph(7), 0)),
                     num_classes=1)
        out = apply_feature_policy(ds, "degree_onehot", degree_cap=5)
        center = out.graphs[0].features[0]
        assert center[5] == 1.0 and center.sum() == 1.0

    def test_motifs_follow_policy(self):
        ds = generate_ba2motifs(4, Rng(2))
        out = apply_feature_policy(ds, "degree_onehot", degree_cap=3)
        assert out.gt_motifs[0].feature_dim == 4
        assert np.array_equal(out.gt_motifs[0].features,
                              np.eye(4)[np.minimum(ds.gt_motifs[0].degrees(), 3)])


class TestStratifiedSplit:
    def make_ds(self, n, rng_seed=0):
        return generate_ba2motifs(n, Rng(rng_seed))

    def test_eighty_twenty_per_class(self):
        ds = self.make_ds(100)
        split = stratified_split(ds, 0.2, 1, seed=11)[0]
        assert len(split.train_ids) == 80
        assert len(split.test_ids) == 20
        labels = ds.labels()
        assert sum(labels[i] == 0 for i in split.test_ids) == 10
        assert sum(labels[i] == 1 for i in split.test_ids) == 10

    def test_disjoint_and_covering(self):
        ds = self.make_ds(50)
        split = stratified_split(ds, 0.3, 1, seed=3)[0]
        all_ids = set(split.train_ids) | set(split.test_ids)
        assert all_ids == set(range(50))
        assert not set(split.train_ids) & set(split.test_ids)

    def test_seed_determinism(self):
        ds = self.make_ds(40)
        a = stratified_split(ds, 0.2, 3, seed=21)
        b = stratified_split(ds, 0.2, 3, seed=21)
        assert a == b

    def test_repeats_differ(self):
        ds = self.make_ds(1000, rng_seed=1)
        splits = stratified_split(ds, 0.2, 10, seed=5)
        test_sets = [frozenset(s.test_ids) for s in splits]
        assert len(set(test_sets)) == 10

    def test_tiny_class_rejected(self):
        graphs = (with_label(path_graph(3), 0), with_label(path_graph(3), 0),
                  with_label(path_graph(3), 1))
        ds = Dataset(graphs=graphs, num_classes=2)
        with pytest.raises(SplitError):
            stratified_split(ds, 0.5, 1, seed=0)


class TestSidecarMasks:
    def test_blank_lines_mean_no_mask(self, tmp_path):
        ds = generate_ba2motifs(4, Rng(0))
        sidecar = tmp_path / "masks.txt"
        sidecar.write_text("\n\n\n\n")
        out = load_ground_truth_masks(ds, str(sidecar))
        assert all(m is None for m in out.gt_instance_masks)

    def test_masks_attach_verbatim(self, tmp_path):
        ds = generate_ba2motifs(2, Rng(0))
        sidecar = tmp_path / "masks.txt"
        sidecar.write_text("0 1\n3 4 5\n")
        out = load_ground_truth_masks(ds, str(sidecar))
        assert out.gt_instance_masks[0].ids == (0, 1)
        assert out.gt_instance_masks[1].ids == (3, 4, 5)

    def test_out_of_range_id_rejected(self, tmp_path):
        ds = generate_ba2motifs(2, Rng(0))
        sidecar = tmp_path / "masks.txt"
        sidecar.write_text("25\n\n")
        with pytest.raises(DatasetFormatError):
            load_ground_truth_masks(ds, str(sidecar))

    def test_line_count_mismatch_rejected(self, tmp_path):
        ds = generate_ba2motifs(4, Rng(0))
        sidecar = tmp_path / "masks.txt"
        sidecar.write_text("0 1\n")
        with pytest.raises(DatasetFormatError):
            load_ground_truth_masks(ds, str(sidecar))
