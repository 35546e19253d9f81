"""Dataset ingestion and synthetic benchmark generation.

Covers the TU flat-file layout (``<name>_A.txt`` + indicator/label files), two
synthetic motif benchmarks with exact ground-truth node masks, feature
policies, ground-truth sidecar files and deterministic stratified splits.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CapacityError, DatasetFormatError, SplitError
from .graphs import Graph, NodeSet, Rng
from .kernel import MAX_BLOCK_ENTRIES
from .record import Record, replace


class Dataset(Record):
    graphs: tuple[Graph, ...]
    num_classes: int
    feature_policy: str = "constant"
    gt_instance_masks: tuple | None = None
    gt_motifs: tuple[Graph, ...] | None = None
    name: str = ""

    def __post_init__(self):
        if self.gt_instance_masks is not None and len(self.gt_instance_masks) != len(self.graphs):
            raise DatasetFormatError("one ground-truth mask slot per graph required")
        dims = {g.feature_dim for g in self.graphs}
        if len(dims) > 1:
            raise DatasetFormatError(f"inconsistent feature dims: {sorted(dims)}")

    def __len__(self):
        return len(self.graphs)

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)

    def subset(self, ids) -> "Dataset":
        ids = list(ids)
        masks = None
        if self.gt_instance_masks is not None:
            masks = tuple(self.gt_instance_masks[i] for i in ids)
        return replace(self, graphs=tuple(self.graphs[i] for i in ids), gt_instance_masks=masks)

    def feature_pool(self) -> np.ndarray:
        """Multiset of all node feature rows, stacked."""
        return np.vstack([g.features for g in self.graphs])

    def average_density(self) -> float:
        return float(np.mean([g.density() for g in self.graphs]))


class Split(Record):
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    fold: int
    seed: int


# ---------------------------------------------------------------------------
# motifs

def house_motif() -> Graph:
    """4-cycle 0-1-2-3 with roof node 4 joined to corners 0 and 1."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])


def cycle_motif(length: int = 5) -> Graph:
    return Graph.from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def grid_motif(side: int = 3) -> Graph:
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return Graph.from_edges(side * side, edges)


def wheel_motif(spokes: int = 6) -> Graph:
    edges = [(0, i) for i in range(1, spokes + 1)]
    edges += [(1 + i, 1 + (i + 1) % spokes) for i in range(spokes)]
    return Graph.from_edges(spokes + 1, edges)


# ---------------------------------------------------------------------------
# synthetic generators

def _barabasi_albert_edges(n: int, attachment: int, rng: Rng) -> list[tuple[int, int]]:
    """Preferential attachment via the repeated-nodes trick."""
    edges = []
    targets = list(range(attachment))
    repeated = []
    for source in range(attachment, n):
        for t in targets:
            edges.append((source, t))
        repeated.extend(targets)
        repeated.extend([source] * attachment)
        chosen = set()
        while len(chosen) < attachment:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        targets = sorted(chosen)
    return edges


def _attach_motif(base_edges: list, base_n: int, motif: Graph, rng: Rng) -> tuple[list, int]:
    """Append motif nodes after the base and wire one random bridging edge."""
    edges = list(base_edges)
    for u, v in motif.edge_list():
        edges.append((base_n + u, base_n + v))
    bridge_base = int(rng.integers(0, base_n))
    bridge_motif = base_n + int(rng.integers(0, motif.n))
    edges.append((bridge_base, bridge_motif))
    return edges, base_n + motif.n


def generate_ba2motifs(n_graphs: int, rng: Rng) -> Dataset:
    """Balanced two-class benchmark: 20-node preferential-attachment base plus
    either a house motif (class 0) or a 5-cycle (class 1), bridged by one
    random edge. Ground-truth masks are the 5 motif nodes."""
    if n_graphs % 2 != 0:
        raise ValueError("n_graphs must be even for balanced classes")
    base_n = 20
    motifs = (house_motif(), cycle_motif(5))
    graphs = []
    masks = []
    for i in range(n_graphs):
        label = i % 2
        g_rng = rng.derive("ba2", i)
        base_edges = _barabasi_albert_edges(base_n, 1, g_rng)
        edges, total = _attach_motif(base_edges, base_n, motifs[label], g_rng)
        graphs.append(Graph.from_edges(total, edges, label=label))
        masks.append(NodeSet(tuple(range(base_n, total)), root=i))
    return Dataset(
        graphs=tuple(graphs),
        num_classes=2,
        feature_policy="constant",
        gt_instance_masks=tuple(masks),
        gt_motifs=motifs,
        name="ba2motifs",
    )


_MULTISHAPE_PATTERNS_CLASS0 = ((), ("house",), ("grid",), ("wheel",), ("house", "grid", "wheel"))
_MULTISHAPE_PATTERNS_CLASS1 = (("house", "grid"), ("house", "wheel"), ("grid", "wheel"))


def generate_bamultishapes(n_graphs: int, rng: Rng) -> Dataset:
    """40-node preferential-attachment base with a subset of {house, grid,
    wheel} planted; class 1 iff exactly two distinct motif kinds are present.
    Masks are the union of planted motif nodes (empty for plain base graphs)."""
    if n_graphs % 2 != 0:
        raise ValueError("n_graphs must be even for balanced classes")
    base_n = 40
    kinds = {"house": house_motif(), "grid": grid_motif(3), "wheel": wheel_motif(6)}
    graphs = []
    masks = []
    for i in range(n_graphs):
        label = i % 2
        g_rng = rng.derive("bams", i)
        patterns = _MULTISHAPE_PATTERNS_CLASS1 if label == 1 else _MULTISHAPE_PATTERNS_CLASS0
        pattern = patterns[int(g_rng.integers(0, len(patterns)))]
        edges = _barabasi_albert_edges(base_n, 1, g_rng)
        total = base_n
        mask_ids = []
        for kind in pattern:
            start = total
            edges, total = _attach_motif(edges, total, kinds[kind], g_rng)
            mask_ids.extend(range(start, total))
        graphs.append(Graph.from_edges(total, edges, label=label))
        masks.append(NodeSet(tuple(mask_ids), root=i))
    return Dataset(
        graphs=tuple(graphs),
        num_classes=2,
        feature_policy="constant",
        gt_instance_masks=tuple(masks),
        gt_motifs=tuple(kinds.values()),
        name="bamultishapes",
    )


# ---------------------------------------------------------------------------
# feature policies

def apply_feature_policy(ds: Dataset, policy: str, degree_cap: int | None = None) -> Dataset:
    """Re-derive node features. ``constant`` sets a scalar 1;
    ``degree_onehot`` one-hot of degree clamped at ``degree_cap`` (defaults
    to the max degree observed in ``ds``); ``node_labels`` keeps the
    features a TU dataset was parsed with."""
    if policy == "constant":
        transform = lambda g: np.ones((g.n, 1))
    elif policy == "degree_onehot":
        cap = degree_cap
        if cap is None:
            cap = int(max(int(g.degrees().max()) for g in ds.graphs))
        def transform(g, cap=cap):
            out = np.zeros((g.n, cap + 1))
            out[np.arange(g.n), np.minimum(g.degrees(), cap)] = 1.0
            return out
    elif policy == "node_labels":
        # features were established at parse time
        return replace(ds, feature_policy="node_labels")
    else:
        raise ValueError(f"unknown feature policy {policy!r}")
    graphs = tuple(g.with_features(transform(g)) for g in ds.graphs)
    motifs = ds.gt_motifs
    if motifs is not None:
        motifs = tuple(m.with_features(transform(m)) for m in motifs)
    return replace(ds, graphs=graphs, gt_motifs=motifs, feature_policy=policy)


# ---------------------------------------------------------------------------
# TU flat files

def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip() != ""]


def parse_tu_dataset(directory: str, name: str) -> Dataset:
    """Parse the standard TU flat-file layout.

    Node labels, when present, become one-hot features; class labels are
    remapped to contiguous 0-based ids; duplicate directed edge pairs merge
    into one undirected edge.
    """
    def p(suffix):
        return os.path.join(directory, f"{name}_{suffix}.txt")

    for required in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(p(required)):
            raise FileNotFoundError(p(required))

    indicator = [int(x) for x in _read_lines(p("graph_indicator"))]
    raw_labels = [int(x) for x in _read_lines(p("graph_labels"))]
    n_graphs = len(raw_labels)
    present = sorted(set(indicator))
    if present != list(range(1, n_graphs + 1)):
        raise DatasetFormatError("graph_indicator ids must be contiguous 1..N")

    label_map = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}
    labels = [label_map[lab] for lab in raw_labels]

    node_graph = np.array(indicator, dtype=np.int64) - 1
    counts = np.bincount(node_graph, minlength=n_graphs)
    # every graph becomes a dense n x n matrix; a graph above the cap could
    # not be grouped into a neighbourhood stack either
    if int(counts.max(initial=0)) ** 2 > MAX_BLOCK_ENTRIES:
        largest = int(counts.argmax())
        raise CapacityError(f"graph {largest + 1} of {name} has {counts[largest]} nodes; "
                            f"its dense adjacency needs {counts[largest]}^2 entries, "
                            f"above the cap of {MAX_BLOCK_ENTRIES}")
    offsets = np.concatenate([[0], np.cumsum(counts)])

    node_labels = None
    if os.path.exists(p("node_labels")):
        node_labels = [int(x) for x in _read_lines(p("node_labels"))]
        if len(node_labels) != len(indicator):
            raise DatasetFormatError("node_labels length does not match node count")

    edges_per_graph: list[set] = [set() for _ in range(n_graphs)]
    for line in _read_lines(p("A")):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetFormatError(f"malformed edge line: {line!r}")
        u, v = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= u < len(indicator) and 0 <= v < len(indicator)):
            raise DatasetFormatError(f"edge endpoint out of range: {line!r}")
        gu, gv = node_graph[u], node_graph[v]
        if gu != gv:
            raise DatasetFormatError(f"edge {u + 1}-{v + 1} crosses graphs {gu + 1} and {gv + 1}")
        lu, lv = u - offsets[gu], v - offsets[gu]
        if lu != lv:
            edges_per_graph[gu].add((min(lu, lv), max(lu, lv)))

    if node_labels is not None:
        distinct = sorted(set(node_labels))
        onehot_index = {lab: i for i, lab in enumerate(distinct)}
        dim = len(distinct)
    graphs = []
    for gi in range(n_graphs):
        n = int(counts[gi])
        if node_labels is not None:
            feats = np.zeros((n, dim))
            for local in range(n):
                feats[local, onehot_index[node_labels[offsets[gi] + local]]] = 1.0
        else:
            feats = np.ones((n, 1))
        graphs.append(Graph.from_edges(n, sorted(edges_per_graph[gi]),
                                       features=feats, label=labels[gi]))
    return Dataset(
        graphs=tuple(graphs),
        num_classes=len(label_map),
        feature_policy="node_labels" if node_labels is not None else "constant",
        name=name,
    )


def load_ground_truth_masks(ds: Dataset, sidecar_path: str) -> Dataset:
    """Attach per-graph ground-truth node masks from a sidecar text file:
    one line per graph with whitespace-separated node ids, blank line for
    graphs without ground truth."""
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(ds.graphs):
        raise DatasetFormatError(
            f"sidecar has {len(lines)} lines for {len(ds.graphs)} graphs")
    masks = []
    for i, line in enumerate(lines):
        if line.strip() == "":
            masks.append(None)
            continue
        ids = [int(tok) for tok in line.split()]
        n = ds.graphs[i].n
        for node_id in ids:
            if not (0 <= node_id < n):
                raise DatasetFormatError(
                    f"mask id {node_id} out of range for graph {i} (n={n})")
        masks.append(NodeSet(tuple(ids), root=i))
    return replace(ds, gt_instance_masks=tuple(masks))


# ---------------------------------------------------------------------------
# splits

def stratified_split(ds: Dataset, test_fraction: float, n_repeats: int, seed: int) -> list[Split]:
    """Class-stratified shuffle splits, deterministic under ``seed``."""
    if not (0.0 < test_fraction < 1.0):
        raise SplitError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    labels = ds.labels()
    by_class = {c: np.nonzero(labels == c)[0] for c in sorted(set(labels.tolist()))}
    for c, ids in by_class.items():
        if len(ids) < 2:
            raise SplitError(f"class {c} has fewer than 2 graphs")
    splits = []
    for rep in range(n_repeats):
        rng = Rng(seed).derive("split", rep)
        train, test = [], []
        for c, ids in by_class.items():
            perm = ids[rng.permutation(len(ids))]
            n_test = int(round(len(ids) * test_fraction))
            n_test = min(max(n_test, 1), len(ids) - 1)
            test.extend(perm[:n_test].tolist())
            train.extend(perm[n_test:].tolist())
        splits.append(Split(train_ids=tuple(sorted(train)),
                            test_ids=tuple(sorted(test)),
                            fold=rep, seed=seed))
    return splits
