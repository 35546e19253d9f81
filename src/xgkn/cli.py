"""Pipeline driver: prepare / train / explain / evaluate / report from one
declarative JSON config.

Every artifact embeds the config hash; mixing artifacts from different
configs is refused. Artifacts are byte-stable across identical runs --
timestamps live only in the sidecar run.log.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from .data import Dataset, apply_feature_policy, load_ground_truth_masks, stratified_split
from .errors import AlignmentError, ArtifactError, NumericError, TrainingDivergedError, XgknError
from .explainer import (
    DEFAULT_THRESHOLD_GRID,
    criterion_score,
    explanation_record,
    importance_maps,
    read_explanations,
    select_threshold,
    threshold_explanations,
    write_explanations,
)
from .graphs import Graph, NodeSet, Rng
from .metrics import (
    AIM_METRIC_ORDER,
    AimConfig,
    aim_report,
    metric_a1,
    metric_a2,
    metric_consistency,
    metric_correctness,
    metric_redundancy,
    metric_robustness,
    metric_sufficiency_necessity,
)
from .model import (
    ModelConfig,
    TrainConfig,
    evaluate_accuracy,
    forward_batch,
    init_model,
    model_from_dict,
    model_to_dict,
    train,
)
from .record import fields, replace

OUT_ROOT_ENV = "XGKN_OUT_ROOT"

THRESHOLD_CRITERIA = ("auto", "a1", "i1+i2")

# The feature policies of each dataset kind (generated graphs have no node
# labels), and why some other values are refused.
FEATURE_POLICIES = {"ba2motifs": (None, "constant", "degree_onehot"),
                    "bamultishapes": (None, "constant", "degree_onehot"),
                    "tu": (None, "constant", "degree_onehot", "node_labels")}
POLICY_HINTS = {
    "degree": "; scalar degree rows encode to the one unit row that 'constant' gives, and "
              "the kernel takes one-hot rows only: use 'constant' or 'degree_onehot'",
    "none": "; null keeps the dataset's own features, 'constant' replaces them"}

DEFAULT_CONFIG = {
    "dataset": {
        "kind": "ba2motifs",
        "n_graphs": 200,
        "seed": 7,
        "path": None,
        "name": None,
        "feature_policy": None,
        "degree_cap": None,
        "gt_sidecar": None,
    },
    "model": {},
    "train": {},
    "split": {"test_fraction": 0.2},
    "threshold": {"criterion": "auto", "grid": list(DEFAULT_THRESHOLD_GRID)},
    "aim": {},
    "seeds": [0, 1, 2, 3, 4],
    "out_dir": "runs/default",
}


def merge_config(user: dict) -> dict:
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


# The JSON values each annotation of a config record field admits.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "None": (type(None),)}


def _check_section(config: dict, section: str, cls) -> None:
    """Refuse a value of ``config[section]`` of the wrong JSON type (by the
    field annotations of ``cls``; a bool is not an int) or one that ``cls``
    itself refuses. Each check of ``cls`` names its field first."""
    values = config[section]
    for key, annotation in fields(cls).items():
        if key in values:
            allowed = tuple(t for name in annotation.split(" | ") for t in _JSON_TYPES[name])
            if type(values[key]) not in allowed:
                raise ValueError(f"config key '{section}.{key}' must be {annotation}, "
                                 f"got {values[key]!r}")
    try:
        cls(**values)
    except ValueError as err:
        raise ValueError(f"config key '{section}.{str(err).split()[0]}': {err}") from None


def validate_config(config: dict, user: dict) -> None:
    """Refuse a merged config with a key no command reads, a value of the
    wrong type or out of range, a dataset setting that does nothing, or a
    seed list or threshold setting no command can run, before any stage
    runs; the ValueError names the key.
    ``train.seed`` is refused too: each model trains under its entry in
    ``seeds``. ``user``, the config as written with its overrides applied,
    tells a set key from a default: a ``tu`` dataset, which generates
    nothing, refuses a set ``dataset.n_graphs`` or ``dataset.seed``."""
    known = {"model": fields(ModelConfig), "train": fields(TrainConfig).keys() - {"seed"},
             "aim": fields(AimConfig)}
    for key, value in config.items():
        if key not in DEFAULT_CONFIG:
            raise ValueError(f"unknown config key {key!r}")
        if not isinstance(DEFAULT_CONFIG[key], dict):
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object, "
                             f"got {type(value).__name__}")
        for name in value:
            if name not in known.get(key, DEFAULT_CONFIG[key]):
                hint = " (each model trains under its entry in 'seeds')" \
                    if (key, name) == ("train", "seed") else ""
                raise ValueError(f"unknown config key '{key}.{name}'{hint}")
    for section, cls in (("model", ModelConfig), ("train", TrainConfig), ("aim", AimConfig)):
        _check_section(config, section, cls)
    dataset = config["dataset"]
    for name, least, none_ok in (("n_graphs", 1, False), ("seed", 0, False),
                                 ("degree_cap", 0, True)):
        value = dataset[name]
        if not (none_ok and value is None) and (type(value) is not int or value < least):
            wanted = f"null or an integer >= {least}" if none_ok else f"an integer >= {least}"
            raise ValueError(f"config key 'dataset.{name}' must be {wanted}, got {value!r}")
    kind, policy = dataset["kind"], dataset["feature_policy"]
    if not isinstance(kind, str) or kind not in FEATURE_POLICIES:
        raise ValueError(f"config key 'dataset.kind' must be one of "
                         f"{tuple(FEATURE_POLICIES)}, got {kind!r}")
    if policy not in FEATURE_POLICIES[kind]:
        allowed = ", ".join("null" if name is None else repr(name)
                            for name in FEATURE_POLICIES[kind])
        raise ValueError(f"config key 'dataset.feature_policy' must be one of {allowed} for "
                         f"a {kind} dataset, got {policy!r}" + POLICY_HINTS.get(str(policy), ""))
    for name in ("path", "name", "gt_sidecar"):
        if kind != "tu" and dataset[name] is not None:
            raise ValueError(f"config key 'dataset.{name}' must be null for a generated {kind} "
                             f"dataset, which reads no files, got {dataset[name]!r}")
    own = user.get("dataset", {})
    for name in ("n_graphs", "seed"):
        if kind == "tu" and name in own:
            raise ValueError(f"config key 'dataset.{name}' must be left unset for a tu "
                             f"dataset, which reads its graphs from files, got {own[name]!r}")
    if dataset["degree_cap"] is not None and policy != "degree_onehot":
        raise ValueError(f"config key 'dataset.degree_cap' must be null unless "
                         f"dataset.feature_policy is 'degree_onehot', got "
                         f"{dataset['degree_cap']!r} with feature_policy {policy!r}")
    if not isinstance(config["out_dir"], str):
        raise ValueError(f"config key 'out_dir' must be a string, got {config['out_dir']!r}")
    fraction = config["split"]["test_fraction"]
    if type(fraction) not in (int, float) or not 0 < fraction < 1:
        raise ValueError(f"config key 'split.test_fraction' must be a number in (0, 1), "
                         f"got {fraction!r}")
    seeds = config["seeds"]
    if not (isinstance(seeds, list) and seeds
            and all(type(seed) is int and seed >= 0 for seed in seeds)):
        raise ValueError(f"config key 'seeds' must be a non-empty list of integers >= 0, "
                         f"got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {seeds}")
    criterion = config["threshold"]["criterion"]
    if criterion not in THRESHOLD_CRITERIA:
        raise ValueError(f"config key 'threshold.criterion' must be one of "
                         f"{THRESHOLD_CRITERIA}, got {criterion!r}")
    grid = config["threshold"]["grid"]
    # i1+i2 draws the samples of threshold p from stream round(100 p), so two
    # grid points off the 0.01 lattice could share one stream
    if not (isinstance(grid, list) and grid and all(
            type(p) in (int, float) and 0 <= p <= 1 and abs(p * 100 - round(p * 100)) < 1e-9
            for p in grid)):
        raise ValueError(f"config key 'threshold.grid' must be a non-empty list of "
                         f"multiples of 0.01 in [0, 1], got {grid!r}")


def canonical_hash(payload: dict) -> str:
    """Short sha256 of the canonical JSON form: the config hash that every
    artifact carries, and the content hash of a prepared dataset."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def resolve_out_dir(config: dict) -> Path:
    out = Path(config["out_dir"])
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _dump_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON; a NaN or infinity in it is refused with a
    ValueError before the file is opened."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n",
                    encoding="utf-8")


def _load_json(path: Path) -> dict:
    """The artifact ``path``; one that is not JSON is refused with an
    ArtifactError (exit 1) that names it, a missing one stays an OSError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:  # not JSON, or not UTF-8
        raise ArtifactError(f"{path} is not a JSON artifact: {err}") from None


def _log(out_dir: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(out_dir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"[{stamp}] {message}\n")


def _check_hash(payload: dict, expected: str, path: Path) -> None:
    found = payload.get("config_hash")
    if found != expected:
        raise AlignmentError(
            f"{path} was produced under config {found}, current config is {expected}")


# ---------------------------------------------------------------------------
# dataset (de)serialization

def dataset_to_dict(ds: Dataset) -> dict:
    def graph_payload(g: Graph) -> dict:
        return {
            "n": g.n,
            "edges": [[int(a), int(b)] for a, b in
                      zip(*np.nonzero(np.triu(g.adjacency, 1)))],
            "features": g.features.tolist(),
            "label": g.label,
        }
    return {
        "name": ds.name,
        "num_classes": ds.num_classes,
        "feature_policy": ds.feature_policy,
        "graphs": [graph_payload(g) for g in ds.graphs],
        "masks": None if ds.gt_instance_masks is None else [
            None if m is None else list(m.ids) for m in ds.gt_instance_masks],
        "motifs": None if ds.gt_motifs is None else [
            graph_payload(m) for m in ds.gt_motifs],
    }


def dataset_from_dict(payload: dict) -> Dataset:
    def build_graph(item: dict) -> Graph:
        adj = np.zeros((item["n"], item["n"]))
        for a, b in item["edges"]:
            adj[a, b] = adj[b, a] = 1.0
        return Graph(adj, np.array(item["features"], dtype=np.float64),
                     np.arange(item["n"]), label=item["label"])
    graphs = tuple(build_graph(item) for item in payload["graphs"])
    masks = None
    if payload["masks"] is not None:
        masks = tuple(
            None if ids is None else NodeSet(tuple(ids), root=i)
            for i, ids in enumerate(payload["masks"]))
    motifs = None
    if payload["motifs"] is not None:
        motifs = tuple(build_graph(item) for item in payload["motifs"])
    return Dataset(graphs=graphs, num_classes=payload["num_classes"],
                   feature_policy=payload["feature_policy"],
                   gt_instance_masks=masks, gt_motifs=motifs,
                   name=payload["name"])


def build_dataset(config: dict) -> Dataset:
    spec = config["dataset"]
    kind = spec["kind"]
    if kind == "ba2motifs":
        ds = data_mod.generate_ba2motifs(spec["n_graphs"], Rng(spec["seed"]))
    elif kind == "bamultishapes":
        ds = data_mod.generate_bamultishapes(spec["n_graphs"], Rng(spec["seed"]))
    else:  # "tu", the one other kind that validate_config admits
        if not spec.get("path") or not spec.get("name"):
            raise FileNotFoundError("tu datasets need dataset.path and dataset.name")
        ds = data_mod.parse_tu_dataset(spec["path"], spec["name"])
        if spec.get("gt_sidecar"):
            ds = load_ground_truth_masks(ds, spec["gt_sidecar"])
    if spec.get("feature_policy"):
        ds = apply_feature_policy(ds, spec["feature_policy"], spec.get("degree_cap"))
    return ds


def load_prepared(out_dir: Path, expected_hash: str) -> tuple[Dataset, list]:
    payload = _load_json(out_dir / "dataset.json")
    _check_hash(payload, expected_hash, out_dir / "dataset.json")
    ds = dataset_from_dict(payload["dataset"])
    split_payload = _load_json(out_dir / "splits.json")
    _check_hash(split_payload, expected_hash, out_dir / "splits.json")
    splits = [data_mod.Split(train_ids=tuple(s["train_ids"]),
                             test_ids=tuple(s["test_ids"]),
                             fold=s["fold"], seed=s["seed"])
              for s in split_payload["splits"]]
    return ds, splits


# ---------------------------------------------------------------------------
# commands

def cmd_prepare(config: dict) -> int:
    ds = build_dataset(config)
    out_dir = resolve_out_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    h = canonical_hash(config)
    seeds = config["seeds"]
    splits = []
    for seed in seeds:
        split = stratified_split(ds, config["split"]["test_fraction"], 1, seed=seed)[0]
        splits.append({"train_ids": list(split.train_ids),
                       "test_ids": list(split.test_ids),
                       "fold": split.fold, "seed": split.seed})
    dataset_dict = dataset_to_dict(ds)
    content_hash = canonical_hash(dataset_dict)
    _dump_json(out_dir / "dataset.json", {"config_hash": h, "content_hash": content_hash,
                                          "dataset": dataset_dict})
    _dump_json(out_dir / "splits.json", {"config_hash": h, "splits": splits})
    _dump_json(out_dir / "config.json", {"config_hash": h, "config": config})
    _log(out_dir, f"prepare: {len(ds)} graphs, hash {h}, content {content_hash}")
    print(f"prepared {len(ds)} graphs ({ds.name}) -> {out_dir} [content {content_hash}]")
    return 0


def cmd_train(config: dict) -> int:
    out_dir = resolve_out_dir(config)
    h = canonical_hash(config)
    ds, splits = load_prepared(out_dir, h)
    model_cfg = ModelConfig(**config["model"])
    for seed, split in zip(config["seeds"], splits):
        train_cfg = TrainConfig(seed=seed, **config["train"])
        model = init_model(model_cfg, ds.feature_dim, ds.num_classes, Rng(seed))
        try:
            model, history = train(model, ds, split, train_cfg)
        except TrainingDivergedError as err:
            _write_history(out_dir / f"history_seed{seed}.csv", err.history)
            _log(out_dir, f"train seed {seed}: diverged at epoch {err.epoch}")
            print(f"seed {seed}: training diverged at epoch {err.epoch}", file=sys.stderr)
            return 1
        test_acc = evaluate_accuracy(model, ds, split.test_ids)
        payload = {"config_hash": h, "seed": seed, "model": model_to_dict(model),
                   "test_accuracy": test_acc}
        _dump_json(out_dir / f"checkpoint_seed{seed}.json", payload)
        _write_history(out_dir / f"history_seed{seed}.csv", history)
        _log(out_dir, f"train seed {seed}: {len(history)} epochs, test acc {test_acc:.4f}")
        print(f"seed {seed}: {len(history)} epochs, test accuracy {test_acc:.3f}")
    return 0


def _write_history(path: Path, history: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "accuracy"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["loss"]), repr(row["accuracy"])])


def _load_model(out_dir: Path, seed: int, expected_hash: str):
    payload = _load_json(out_dir / f"checkpoint_seed{seed}.json")
    _check_hash(payload, expected_hash, out_dir / f"checkpoint_seed{seed}.json")
    return model_from_dict(payload["model"]), payload.get("test_accuracy")


def _aim_config(config: dict, ds: Dataset) -> AimConfig:
    """The aim config with ``delta_edge_add`` resolved on the whole dataset."""
    cfg = AimConfig(**config["aim"])
    return replace(cfg, delta_edge_add=cfg.resolve_edge_add(ds))


def cmd_explain(config: dict) -> int:
    out_dir = resolve_out_dir(config)
    h = canonical_hash(config)
    ds, splits = load_prepared(out_dir, h)
    aim_cfg = _aim_config(config, ds)
    grid = tuple(config["threshold"]["grid"])
    criterion = config["threshold"]["criterion"]
    if criterion == "auto":
        has_masks = ds.gt_instance_masks is not None and any(
            m is not None and len(m) > 0 for m in ds.gt_instance_masks)
        criterion = "a1" if has_masks else "i1+i2"
    thresholds = {}
    for seed, split in zip(config["seeds"], splits):
        model, _ = _load_model(out_dir, seed, h)
        eval_ds = ds.subset(split.test_ids)
        fp = forward_batch(model, eval_ds.graphs)
        importances = importance_maps(model, fp)
        for graph_id, importance in zip(split.test_ids, importances):
            if not np.isfinite(importance).all():
                raise NumericError(f"explain seed {seed}: graph {graph_id} has a non-finite "
                                   f"importance; nothing was written for this seed")
        predicted = fp.predicted.tolist()
        selection = select_threshold(model, eval_ds, criterion, grid=grid,
                                     cfg=aim_cfg, rng=Rng(seed).derive("threshold"),
                                     importances=importances, predicted=predicted)
        explanations = threshold_explanations(eval_ds.graphs, importances, selection.p)
        records = [explanation_record(graph_id, expl)
                   for graph_id, expl in zip(split.test_ids, explanations)]
        write_explanations(str(out_dir / f"explanations_seed{seed}.jsonl"), records)
        sensitivity = {}
        for shifted in (selection.p - 0.1, selection.p, selection.p + 0.1):
            shifted = round(min(max(shifted, 0.0), 1.0), 3)
            sensitivity[str(shifted)] = criterion_score(
                model, eval_ds, importances, shifted, criterion,
                cfg=aim_cfg, rng=Rng(seed).derive("sensitivity"), predicted=predicted)
        thresholds[str(seed)] = {
            "p": selection.p,
            "criterion": criterion,
            "grid_scores": {str(k): v for k, v in selection.scores.items()},
            "sensitivity": sensitivity,
        }
        _log(out_dir, f"explain seed {seed}: p={selection.p} ({criterion})")
        print(f"seed {seed}: threshold {selection.p} by {criterion}")
    _dump_json(out_dir / "thresholds.json", {"config_hash": h, "thresholds": thresholds})
    return 0


def _explanations_from_records(records: list, ds: Dataset) -> tuple[list, list]:
    ids = [r["graph_id"] for r in records]
    explanations = threshold_explanations([ds.graphs[i] for i in ids],
                                          [np.array(r["importance"]) for r in records],
                                          [r["threshold"] for r in records])
    return ids, explanations


def cmd_evaluate(config: dict, compare_dir: str | None = None) -> int:
    comparisons = dict([_compare_report(compare_dir)]) if compare_dir else None
    out_dir = resolve_out_dir(config)
    h = canonical_hash(config)
    ds, splits = load_prepared(out_dir, h)
    aim_cfg = _aim_config(config, ds)
    values: dict[str, list] = {name: [] for name in AIM_METRIC_ORDER}
    values["accuracy"] = []
    counts: dict[str, int] = {}
    invalid: set[str] = set()
    skipped_metrics: set[str] = set()
    per_seed_explanations = {}
    for seed, split in zip(config["seeds"], splits):
        model, test_acc = _load_model(out_dir, seed, h)
        records = read_explanations(str(out_dir / f"explanations_seed{seed}.jsonl"))
        eval_ds = ds.subset(split.test_ids)
        if aim_cfg.feature_pool_scope == "train":
            feature_pool = ds.subset(split.train_ids).feature_pool()
        else:
            feature_pool = ds.feature_pool()
        expected_ids = list(split.test_ids)
        ids, explanations = _explanations_from_records(records, ds)
        if ids != expected_ids:
            raise AlignmentError(
                f"explanations for seed {seed} cover graphs {ids[:5]}..., "
                f"expected the test split {expected_ids[:5]}...")
        per_seed_explanations[seed] = dict(zip(ids, explanations))
        values["accuracy"].append(
            test_acc if test_acc is not None
            else evaluate_accuracy(model, ds, split.test_ids))
        rng = Rng(seed).derive("aim")
        fp = forward_batch(model, eval_ds.graphs)
        predicted = fp.predicted.tolist()
        try:
            res = metric_a1(explanations, eval_ds)
            values["A1"].append(res.value)
            counts["A1"] = counts.get("A1", 0) + res.n_used
        except XgknError:
            skipped_metrics.add("A1")
        try:
            res = metric_a2(model, eval_ds)
            values["A2"].append(res.value)
        except XgknError:
            skipped_metrics.add("A2")
        for mode in ("I1", "I2"):
            res = metric_sufficiency_necessity(model, eval_ds, explanations, mode,
                                               aim_cfg, rng.derive(mode), predicted)
            _collect(values, counts, invalid, mode, res)
        for mode in ("I3", "I4"):
            res = metric_robustness(model, eval_ds, explanations, mode, aim_cfg,
                                    rng.derive(mode), feature_pool=feature_pool,
                                    predicted=predicted)
            _collect(values, counts, invalid, mode, res)
        for mode in ("M1", "M2"):
            res = metric_correctness(model, eval_ds, explanations, mode,
                                     aim_cfg, rng.derive(mode), feature_pool=feature_pool)
            _collect(values, counts, invalid, mode, res)
        try:
            res = metric_redundancy(fp.z)
            _collect(values, counts, invalid, "M3", res)
        except XgknError:
            skipped_metrics.add("M3")
        _log(out_dir, f"evaluate seed {seed} done")
    # consistency across seed pairs on shared test graphs
    seeds = config["seeds"]
    pair_values = []
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            a, b = per_seed_explanations[seeds[i]], per_seed_explanations[seeds[j]]
            shared = sorted(set(a) & set(b))
            if not shared:
                continue
            res = metric_consistency([a[g] for g in shared], [b[g] for g in shared])
            pair_values.append(res.value)
            counts["I5"] = counts.get("I5", 0) + res.n_used
    if pair_values:
        values["I5"] = pair_values
    else:
        skipped_metrics.add("I5")
    values = {k: v for k, v in values.items() if v}
    report = aim_report(values, comparisons=comparisons,
                        config={"config_hash": h, "seeds": seeds,
                                "aim": config["aim"],
                                "baseline": "train-split mean scores"},
                        alpha=aim_cfg.alpha,
                        sample_counts=counts, invalid=tuple(sorted(invalid)))
    payload = report.to_dict()
    payload["config_hash"] = h
    payload["skipped_metrics"] = sorted(skipped_metrics)
    _dump_json(out_dir / "report.json", payload)
    _write_report_csv(out_dir / "report.csv", report)
    _write_radar_csv(out_dir / "radar.csv", report)
    if report.ttests:
        _write_ttests_csv(out_dir / "ttests.csv", report)
    print(render_report(payload))
    return 0


def _collect(values, counts, invalid, name, res) -> None:
    if res.valid:
        values[name].append(res.value)
        counts[name] = counts.get(name, 0) + res.n_used
    else:
        invalid.add(name)


def _write_report_csv(path: Path, report) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "std", "n_runs", "values"])
        for name in ["accuracy"] + list(AIM_METRIC_ORDER):
            if name not in report.metrics:
                continue
            s = report.metrics[name]
            writer.writerow([name, repr(s.mean), repr(s.std), len(s.values),
                             " ".join(repr(v) for v in s.values)])


def _write_radar_csv(path: Path, report) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in report.radar_series():
            writer.writerow([name, repr(value)])


def _write_ttests_csv(path: Path, report) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "against", "t", "df", "p_value", "significant"])
        for row in report.ttests:
            writer.writerow([row["metric"], row["against"],
                             "" if row["t"] is None else repr(row["t"]),
                             repr(row["df"]), repr(row["p_value"]), row["significant"]])


def render_report(payload: dict) -> str:
    lines = ["metric      mean     std"]
    for name in ["accuracy"] + list(AIM_METRIC_ORDER):
        entry = payload["metrics"].get(name)
        if entry is None:
            continue
        lines.append(f"{name:<10} {entry['mean']:.4f}  {entry['std']:.4f}")
    if payload.get("skipped_metrics"):
        lines.append("skipped: " + ", ".join(payload["skipped_metrics"]))
    if payload.get("invalid"):
        lines.append("invalid (too many skipped samples): " + ", ".join(payload["invalid"]))
    for row in payload.get("ttests", []):
        flag = "*" if row["significant"] else " "
        t = "n/a" if row["t"] is None else f"{row['t']:.3f}"
        lines.append(f"t-test {row['metric']} vs {row['against']}: "
                     f"t={t} df={row['df']:.1f} p={row['p_value']:.4f}{flag}")
    return "\n".join(lines)


def _compare_report(compare_dir: str) -> tuple[str, dict]:
    """The name of ``compare_dir`` and the values of each metric of its
    ``report.json``. A file that is missing, is not JSON or holds no metric
    values is refused with a message that names it."""
    path = Path(compare_dir) / "report.json"
    try:
        metrics = _load_json(path)["metrics"]
        return Path(compare_dir).name, {name: entry["values"] for name, entry in metrics.items()}
    except (ArtifactError, KeyError, TypeError, AttributeError):
        raise ValueError(f"compare report {path} is not a report.json with metric values") \
            from None


def cmd_report(config: dict, compare_dir: str | None = None) -> int:
    out_dir = resolve_out_dir(config)
    payload = _load_json(out_dir / "report.json")
    _check_hash(payload, canonical_hash(config), out_dir / "report.json")
    if compare_dir:
        ours = {name: entry["values"] for name, entry in payload["metrics"].items()}
        report = aim_report(ours, comparisons=dict([_compare_report(compare_dir)]),
                            alpha=AimConfig(**config["aim"]).alpha)
        payload["ttests"] = list(report.ttests)
    print(render_report(payload))
    return 0


# ---------------------------------------------------------------------------
# process set-up

# glibc mallopt(3) parameters. Left to glibc's dynamic rule, the mmap
# threshold settles near the size of the largest freed block (about 1.6 MB in
# a one-hot training step) and the trim threshold at twice that, so every
# training step hands its heap top back to the kernel and the next one faults
# it in again. These fix both at the largest values the dynamic rule reaches
# on 64-bit, keeping its 1:2 ratio.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 64 << 20


def keep_freed_heap() -> bool:
    """Keep freed blocks under 32 MiB in this process's heap for reuse,
    instead of unmapping or trimming them after every step. Returns whether
    libc took both settings; a libc without ``mallopt`` (macOS) is left
    alone. Called by ``main`` only, so a process that imports xgkn as a
    library keeps its own allocator settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took_mmap = mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD) == 1
    took_trim = mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1
    return took_mmap and took_trim


# ---------------------------------------------------------------------------
# argument handling

def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Set each ``section.key=value`` of ``overrides`` in ``config``; a path
    through a value that is not an object is refused, naming the key."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        keys = dotted.split(".")
        for depth, key in enumerate(keys[:-1]):
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r}: config key "
                                 f"'{'.'.join(keys[:depth + 1])}' is {node!r}, not an object")
        node[keys[-1]] = value
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xgkn",
        description="Train graph kernel networks, extract Shapley explanations, "
                    "and score them with the explanation-quality metric suite.")
    parser.add_argument("command",
                        choices=["prepare", "train", "explain", "evaluate", "report"])
    parser.add_argument("-c", "--config", required=True, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (dotted path, JSON value)")
    parser.add_argument("--out", help="override out_dir")
    parser.add_argument("--compare", help="another run directory for t-tests "
                                          "(evaluate and report only)")
    return parser


def main(argv=None) -> int:
    keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.compare is not None and args.command not in ("evaluate", "report"):
        print(f"error: --compare applies to evaluate and report only, not {args.command}",
              file=sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            user_config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read config {args.config}: {err}", file=sys.stderr)
        return 2
    if not isinstance(user_config, dict):
        print(f"cannot read config {args.config}: its top level must be a JSON object, "
              f"not a {type(user_config).__name__}", file=sys.stderr)
        return 2
    try:
        user_config = _apply_overrides(user_config, args.set)
        config = merge_config(user_config)
        if args.out:
            config["out_dir"] = args.out
        validate_config(config, user_config)
        if args.command == "prepare":
            return cmd_prepare(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "explain":
            return cmd_explain(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, compare_dir=args.compare)
        return cmd_report(config, compare_dir=args.compare)
    except XgknError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        # an OSError of an artifact path (missing, a file where a directory
        # belongs, or the reverse) names the path in its message
        print(f"error: {err}", file=sys.stderr)
        return 2


def run(argv=None):
    """The process entry: ``main(argv)``, then stdout and stderr flushed and
    the process ended with main's status by ``os._exit``. This skips the
    interpreter's teardown, about 20 ms of module clearing and full
    collections, and any atexit handler; every artifact is closed before
    ``main`` returns. An exception out of ``main`` (argparse's SystemExit
    too) leaves through Python's normal exit. A flush that finds the pipe's
    reader gone ends the process with status 120 and no traceback."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 120  # the interpreter's own status when its exit cannot flush
    os._exit(code)


if __name__ == "__main__":
    run()
