import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xgkn.cli
import xgkn.kernel
import xgkn.model
from xgkn.cli import main
from xgkn.data import generate_ba2motifs
from xgkn.graphs import Rng
from xgkn.kernel import anchor_walks
from xgkn.record import replace

from oracles import walk_horner_responses, write_tu_dataset

TINY_CONFIG = {
    "dataset": {"kind": "ba2motifs", "n_graphs": 16, "seed": 3},
    "model": {"num_filters": 2, "filter_size": 3, "embed_dim": 4,
              "hop_radius": 1, "max_subgraph_size": 5},
    "train": {"epochs": 5, "batch_size": 16},
    "threshold": {"criterion": "auto", "grid": [0.3, 0.5, 0.7]},
    "aim": {"samples_per_graph": 3},
    "seeds": [0, 1],
}


def write_config(tmp_path: Path, out_dir: Path, extra=None) -> Path:
    config = json.loads(json.dumps(TINY_CONFIG))
    config["out_dir"] = str(out_dir)
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full prepare/train/explain/evaluate pass shared by the checks."""
    tmp_path = tmp_path_factory.mktemp("cli")
    out_dir = tmp_path / "run"
    config = write_config(tmp_path, out_dir)
    for command in ("prepare", "train", "explain", "evaluate"):
        assert main([command, "-c", str(config)]) == 0
    return tmp_path, out_dir, config


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        _, out_dir, _ = pipeline
        for name in ("dataset.json", "splits.json", "checkpoint_seed0.json",
                     "checkpoint_seed1.json", "history_seed0.csv",
                     "explanations_seed0.jsonl", "thresholds.json",
                     "report.json", "report.csv", "radar.csv", "run.log"):
            assert (out_dir / name).exists(), name

    def test_report_contents(self, pipeline):
        _, out_dir, _ = pipeline
        report = json.loads((out_dir / "report.json").read_text())
        for name in ("accuracy", "A1", "A2", "I1", "I2", "I3", "I4", "M1", "M2", "M3"):
            assert name in report["metrics"], name
            for value in report["metrics"][name]["values"]:
                assert 0.0 <= value <= 1.0
        assert report["config"]["config_hash"] == report["config_hash"]

    def test_thresholds_log_sensitivity(self, pipeline):
        _, out_dir, _ = pipeline
        thresholds = json.loads((out_dir / "thresholds.json").read_text())
        for seed_entry in thresholds["thresholds"].values():
            assert seed_entry["criterion"] == "a1"
            assert len(seed_entry["sensitivity"]) >= 2
            assert len(seed_entry["grid_scores"]) == 3

    def test_rerun_is_byte_identical(self, pipeline):
        tmp_path, out_dir, config = pipeline
        watched = ["dataset.json", "splits.json", "checkpoint_seed0.json",
                   "explanations_seed0.jsonl", "thresholds.json",
                   "report.json", "report.csv", "radar.csv"]
        before = {name: (out_dir / name).read_bytes() for name in watched}
        for command in ("prepare", "train", "explain", "evaluate"):
            assert main([command, "-c", str(config)]) == 0
        for name in watched:
            assert (out_dir / name).read_bytes() == before[name], name

    def test_report_command(self, pipeline, capsys):
        _, out_dir, config = pipeline
        assert main(["report", "-c", str(config)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy" in printed and "A1" in printed

    def test_self_comparison_not_significant(self, pipeline, capsys):
        _, out_dir, config = pipeline
        assert main(["report", "-c", str(config), "--compare", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "p=1.0000" in printed

    def test_report_under_other_config_refused(self, pipeline):
        _, _, config = pipeline
        assert main(["report", "-c", str(config), "--set", "train.epochs=4"]) == 1

    def test_report_compare_prints_each_ttest_once_at_config_alpha(
            self, pipeline, tmp_path, capsys):
        _, base_dir, _ = pipeline
        out_dir = tmp_path / "alpha"
        # one epoch gives other metric values than the base run's five; on
        # this config several p-values land between 0.05 and 0.9, where the
        # configured alpha and the default one disagree
        config = write_config(tmp_path, out_dir, extra={
            "train": {"epochs": 1, "batch_size": 16},
            "aim": {"samples_per_graph": 3, "alpha": 0.9}})
        for command in ("prepare", "train", "explain"):
            assert main([command, "-c", str(config)]) == 0
        assert main(["evaluate", "-c", str(config), "--compare", str(base_dir)]) == 0
        ttests = json.loads((out_dir / "report.json").read_text())["ttests"]
        capsys.readouterr()
        assert main(["report", "-c", str(config), "--compare", str(base_dir)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("t-test")]
        assert len(lines) == len(ttests) > 0
        for line, row in zip(lines, ttests):
            assert line.startswith(f"t-test {row['metric']} vs ")
            assert line.endswith("*") == (row["p_value"] < 0.9)
        assert any(0.05 <= row["p_value"] < 0.9 for row in ttests)


class TestErrors:
    def test_missing_config_is_usage_error(self):
        assert main(["prepare", "-c", "/nonexistent/config.json"]) == 2

    def test_missing_tu_path_is_usage_error(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out",
                              extra={"dataset": {"kind": "tu"}})
        assert main(["prepare", "-c", str(config)]) == 2
        # missing TU files too, and neither leaves an empty out_dir
        config = write_config(tmp_path, tmp_path / "out", extra={"dataset": {
            "kind": "tu", "path": str(tmp_path / "absent"), "name": "X"}})
        assert main(["prepare", "-c", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_train_before_prepare_fails(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "fresh")
        assert main(["train", "-c", str(config)]) == 2

    def test_mixed_hash_refused(self, tmp_path):
        out_dir = tmp_path / "run"
        config = write_config(tmp_path, out_dir)
        assert main(["prepare", "-c", str(config)]) == 0
        # changing a knob that alters the hash must invalidate the artifacts
        assert main(["train", "-c", str(config), "--set", "train.epochs=6"]) == 1

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "dup", extra={"seeds": [0, 0]})
        assert main(["prepare", "-c", str(config)]) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "dup").exists()

    def test_content_hash_ignores_the_config(self, tmp_path):
        hashes = []
        for epochs in (5, 6):
            out_dir = tmp_path / f"epochs{epochs}"
            config = write_config(tmp_path, out_dir)
            assert main(["prepare", "-c", str(config), "--set",
                         f"train.epochs={epochs}"]) == 0
            payload = json.loads((out_dir / "dataset.json").read_text())
            hashes.append((payload["config_hash"], payload["content_hash"]))
        assert hashes[0][0] != hashes[1][0]
        assert hashes[0][1] == hashes[1][1]

    def test_out_dir_that_is_a_file_is_usage_error_naming_it(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        config = write_config(tmp_path, taken)
        assert main(["prepare", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(taken) in err and "Traceback" not in err
        assert taken.read_text() == "not a directory"

    def test_compare_with_a_file_is_usage_error_naming_it(self, pipeline, tmp_path, capsys):
        _, _, config = pipeline
        other = tmp_path / "report.json"
        other.write_text("{}")
        capsys.readouterr()
        assert main(["report", "-c", str(config), "--compare", str(other)]) == 2
        err = capsys.readouterr().err
        assert str(other) in err and "Traceback" not in err

    @pytest.mark.parametrize("override,key", [("out_dir.x=1", "out_dir"), ("seeds.x=1", "seeds"),
                                              ("model.num_filters.x=2", "model.num_filters")])
    def test_override_through_a_value_that_is_no_object_names_it(self, tmp_path, capsys,
                                                                 override, key):
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["prepare", "-c", str(config), "--set", override]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("top", ["[1, 2]", '"x"', "3"])
    def test_config_that_is_no_object_is_usage_error_naming_it(self, tmp_path, capsys, top):
        config = tmp_path / "config.json"
        config.write_text(top)
        assert main(["prepare", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["prepare", "train", "explain"])
    def test_compare_refused_where_nothing_reads_it(self, tmp_path, capsys, command):
        config = write_config(tmp_path, tmp_path / "out")
        assert main([command, "-c", str(config), "--compare", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--compare" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, "not json", "[]", '{"metrics": 3}'])
    def test_evaluate_reads_the_compare_report_before_any_work(self, pipeline, tmp_path,
                                                                capsys, monkeypatch, content):
        # a compare report that is missing, not JSON or no report is refused,
        # naming it, before evaluate loads the prepared dataset
        _, out_dir, config = pipeline
        other = tmp_path / "other"
        other.mkdir()
        if content is not None:
            (other / "report.json").write_text(content)
        loads = []
        monkeypatch.setattr(xgkn.cli, "load_prepared", lambda *args: loads.append(args))
        report = (out_dir / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["evaluate", "-c", str(config), "--compare", str(other)]) == 2
        err = capsys.readouterr().err
        assert str(other / "report.json") in err and "Traceback" not in err
        assert loads == []
        assert (out_dir / "report.json").read_bytes() == report

    def test_override_changes_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "run2"
        config = write_config(tmp_path, out_dir)
        assert main(["prepare", "-c", str(config), "--set",
                     "dataset.n_graphs=8"]) == 0
        printed = capsys.readouterr().out
        assert "prepared 8 graphs" in printed


# (section overrides merged into TINY_CONFIG, --set overrides, key the error names)
BAD_CONFIGS = [
    ({"model": {"nmu_filters": 2}}, [], "model.nmu_filters"),
    ({"train": {"epoch": 3}}, [], "train.epoch"),
    ({"train": {"seed": 3}}, [], "train.seed"),
    ({"aim": {"sample_per_graph": 3}}, [], "aim.sample_per_graph"),
    ({"dataset": {"n_graph": 8}}, [], "dataset.n_graph"),
    ({"split": {"fraction": 0.5}}, [], "split.fraction"),
    ({"threshold": {"criteria": "a1"}}, [], "threshold.criteria"),
    ({"modle": {"num_filters": 2}}, [], "modle"),
    ({"model": [2, 3]}, [], "model"),
    ({}, ["aim.alpah=0.1"], "aim.alpah"),
    ({}, ["optimizer.lr=0.1"], "optimizer"),
    ({"seeds": 3}, [], "seeds"),
    ({"seeds": [0, "1"]}, [], "seeds"),
]


# Values refused before any stage runs. Before validate_config built the
# config records, the first two ended train in a TypeError traceback, the
# next two passed prepare, samples_per_graph=0 passed prepare and train, and
# test_fraction=1.5 exited 1.
BAD_VALUES = [
    ('model.num_filters="8"', "model.num_filters"),
    ("model.num_filters=true", "model.num_filters"),
    ("train.epochs=0", "train.epochs"),
    ("model.hop_radius=0", "model.hop_radius"),
    ("aim.samples_per_graph=0", "aim.samples_per_graph"),
    ("split.test_fraction=1.5", "split.test_fraction"),
    # these ended in a traceback (the first five) or ran every stage on no
    # model (the last) before validate_config checked the dataset section,
    # out_dir and the seed list
    ('dataset.n_graphs="abc"', "dataset.n_graphs"),
    ("dataset.n_graphs=0", "dataset.n_graphs"),
    ("dataset.n_graphs=-4", "dataset.n_graphs"),
    ("dataset.degree_cap=-1", "dataset.degree_cap"),
    ('dataset.degree_cap="x"', "dataset.degree_cap"),
    ("out_dir=5", "out_dir"),
    ("seeds=[]", "seeds"),
    ("dataset.seed=1.5", "dataset.seed"),
    ("dataset.seed=-1", "dataset.seed"),
    ("seeds=[0, -1]", "seeds"),
    # these passed validation: no retry skips every I1-I4 sample, an alpha
    # outside (0, 1) marks every t-test significant or none, and the edge
    # values failed only in evaluate
    ("aim.max_retries=0", "aim.max_retries"),
    ("aim.max_retries=-2", "aim.max_retries"),
    ("aim.alpha=0", "aim.alpha"),
    ("aim.alpha=1.5", "aim.alpha"),
    ("aim.delta_edge_add=0", "aim.delta_edge_add"),
    ("aim.delta_edge_add=1.0", "aim.delta_edge_add"),
    ("aim.edge_add_scale=0", "aim.edge_add_scale"),
    ("aim.edge_add_scale=-0.1", "aim.edge_add_scale"),
    # prepare refused these only after it had created out_dir (the typos),
    # or ran on them: "degree" encoded to constant's rows on a slower path,
    # "none" replaced TU node labels with constant rows, and node_labels and
    # degree_cap did nothing here
    ('dataset.kind="ba2motif"', "dataset.kind"),
    ("dataset.kind=[1]", "dataset.kind"),
    ('dataset.feature_policy="degre_onehot"', "dataset.feature_policy"),
    ('dataset.feature_policy="degree"', "dataset.feature_policy"),
    ('dataset.feature_policy="none"', "dataset.feature_policy"),
    ('dataset.feature_policy="node_labels"', "dataset.feature_policy"),
    ("dataset.feature_policy=[1]", "dataset.feature_policy"),
    ("dataset.degree_cap=3", "dataset.degree_cap"),
    (('dataset.feature_policy="constant"', "dataset.degree_cap=3"), "dataset.degree_cap"),
]


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["prepare", "train"])
    @pytest.mark.parametrize("override,key", BAD_VALUES)
    def test_bad_value_is_usage_error_naming_it(self, tmp_path, capsys, override, key,
                                                command):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        if command == "train":
            assert main(["prepare", "-c", str(config)]) == 0
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        argv = [command, "-c", str(config)]
        for item in override if isinstance(override, tuple) else (override,):
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("sections,overrides,key", BAD_CONFIGS)
    def test_unknown_key_is_usage_error_naming_it(self, tmp_path, capsys,
                                                   sections, overrides, key):
        config = json.loads(json.dumps(TINY_CONFIG))
        for name, value in sections.items():
            if isinstance(value, dict) and isinstance(config.get(name), dict):
                config[name].update(value)
            else:
                config[name] = value
        config["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["prepare", "-c", str(path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threshold,key", [
        ({"grid": "abc"}, "threshold.grid"),
        ({"grid": []}, "threshold.grid"),
        ({"grid": [1.5]}, "threshold.grid"),
        ({"grid": [-0.1]}, "threshold.grid"),
        ({"grid": [0.555, 0.56]}, "threshold.grid"),
        ({"grid": [0.5, "0.7"]}, "threshold.grid"),
        ({"grid": [True]}, "threshold.grid"),
        ({"criterion": "a2"}, "threshold.criterion"),
    ])
    def test_bad_threshold_is_usage_error_naming_it(self, tmp_path, capsys, threshold, key):
        config = write_config(tmp_path, tmp_path / "out",
                              extra={"threshold": {**TINY_CONFIG["threshold"], **threshold}})
        assert main(["prepare", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_removed_degree_policy_names_the_policies_to_use(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "out")
        assert main(["prepare", "-c", str(config), "--set",
                     'dataset.feature_policy="degree"']) == 2
        err = capsys.readouterr().err
        assert "'constant'" in err and "'degree_onehot'" in err and "unit row" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ba2motifs", "bamultishapes"])
    @pytest.mark.parametrize("key,value", [("path", "/nonexistent"), ("name", "MUTAG"),
                                           ("gt_sidecar", "/nonexistent/m.txt")])
    def test_file_keys_on_generated_data_refused(self, tmp_path, capsys, kind, key, value):
        # generated graphs read no files; prepare used to ignore these keys
        # and exit 0
        config = write_config(tmp_path, tmp_path / "out", extra={
            "dataset": {**TINY_CONFIG["dataset"], "kind": kind, key: value}})
        assert main(["prepare", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"'dataset.{key}'" in err and kind in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route", ["file", "set"])
    @pytest.mark.parametrize("key,value", [("n_graphs", 8), ("seed", 3)])
    def test_generator_keys_on_tu_data_refused(self, tmp_path, capsys, route, key, value):
        # a tu dataset is read from files, not generated; prepare used to
        # ignore these keys and exit 0, whether the file or --set set them
        write_tu_dataset(generate_ba2motifs(4, Rng(0)), str(tmp_path / "tu"), "X")
        dataset = {"kind": "tu", "path": str(tmp_path / "tu"), "name": "X"}
        config = write_config(tmp_path, tmp_path / "out", extra={
            "dataset": {**dataset, key: value} if route == "file" else dataset})
        argv = ["prepare", "-c", str(config)]
        if route == "set":
            argv += ["--set", f"dataset.{key}={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"'dataset.{key}'" in err and "tu" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_section_override_keeps_the_defaults_it_leaves_out(self, tmp_path, capsys):
        # --set used to replace the merged section, defaults included, so
        # split={} ended prepare in a KeyError traceback
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        assert main(["prepare", "-c", str(config), "--set", "split={}"]) == 0
        stored = json.loads((out_dir / "config.json").read_text())["config"]
        assert stored["split"] == xgkn.cli.DEFAULT_CONFIG["split"]
        assert "Traceback" not in capsys.readouterr().err

    def test_degree_cap_with_degree_onehot_accepted(self, tmp_path):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        overrides = ['dataset.feature_policy="degree_onehot"', "dataset.degree_cap=2"]
        assert main(["prepare", "-c", str(config), "--set", overrides[0],
                     "--set", overrides[1]]) == 0
        graphs = json.loads((out_dir / "dataset.json").read_text())["dataset"]["graphs"]
        assert {len(row) for g in graphs for row in g["features"]} == {3}

    def test_grid_on_the_lattice_accepted(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "out", extra={
            "threshold": {"criterion": "i1+i2", "grid": [0, 0.07, 0.29, 0.5, 1]}})
        assert main(["prepare", "-c", str(config)]) == 0

    @pytest.mark.parametrize("command", ["prepare", "train", "explain", "evaluate", "report"])
    def test_every_command_checks_before_it_runs(self, tmp_path, capsys, command):
        config = write_config(tmp_path, tmp_path / "out",
                              extra={"model": {"nmu_filters": 2}})
        assert main([command, "-c", str(config)]) == 2
        assert "'model.nmu_filters'" in capsys.readouterr().err

    def test_valid_config_keeps_its_hash(self, tmp_path):
        # validation reads the config and changes nothing that is hashed
        out_dir = tmp_path / "out"
        config = write_config(tmp_path, out_dir)
        assert main(["prepare", "-c", str(config)]) == 0
        merged = xgkn.cli.merge_config(json.loads(config.read_text()))
        stored = json.loads((out_dir / "config.json").read_text())
        assert stored["config"] == merged
        assert stored["config_hash"] == xgkn.cli.canonical_hash(merged)


class TestEnvRoot:
    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XGKN_OUT_ROOT", str(tmp_path / "root"))
        config = write_config(tmp_path, Path("relative_run"))
        assert main(["prepare", "-c", str(config)]) == 0
        assert (tmp_path / "root" / "relative_run" / "dataset.json").exists()


def test_cli_import_leaves_scipy_special_unloaded():
    # welch_ttest imports scipy.special itself: at module level it would add
    # its import time to the start-up of every CLI stage
    env = {**os.environ, "PYTHONPATH": str(Path(xgkn.cli.__file__).resolve().parents[1])}
    code = "import sys, xgkn.cli; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # the kernel works on dense walk weights: no stage that builds
    # neighbourhoods may pay the import time and memory of scipy.sparse, and
    # evaluate avoids the numpy.ma import of np.unique(..., axis=0)
    env = {**os.environ, "PYTHONPATH": str(Path(xgkn.cli.__file__).resolve().parents[1])}
    config = write_config(tmp_path, tmp_path / "out", extra={
        "train": {"epochs": 1, "batch_size": 16}, "seeds": [0]})
    code = ("import sys; from xgkn.cli import main; "
            "codes = [main([stage, '-c', sys.argv[1]]) for stage in "
            "('prepare', 'train', 'explain', 'evaluate')]; "
            "sys.exit(codes != [0, 0, 0, 0] or 'scipy.sparse' in sys.modules "
            "or 'numpy.ma' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, str(config)], env=env,
                          stdout=subprocess.DEVNULL).returncode == 0


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Four 1.6 MB arrays, allocated and freed 50 times after one warm-up round:
# under glibc's dynamic thresholds each round trims the heap top and faults
# it in again, about 1600 minor faults a round.
HEAP_PROBE = """
import resource, sys
import numpy as np
from xgkn.cli import keep_freed_heap

assert keep_freed_heap()

def one_round():
    arrays = [np.ones(200_000) for _ in range(4)]
    del arrays

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
def test_kept_heap_reuses_freed_multi_megabyte_blocks():
    env = {**os.environ, "PYTHONPATH": str(Path(xgkn.cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


def test_main_keeps_the_freed_heap_before_every_command(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(xgkn.cli, "keep_freed_heap", lambda: calls.append("heap"))
    commands = ("prepare", "train", "explain", "evaluate", "report")
    for command in commands:
        monkeypatch.setattr(xgkn.cli, f"cmd_{command}",
                            lambda *args, command=command, **kwargs: calls.append(command) or 0)
    config = write_config(tmp_path, tmp_path / "out")
    for command in commands:
        assert main([command, "-c", str(config)]) == 0
    assert calls == [entry for command in commands for entry in ("heap", command)]


def test_block_cap_exits_1_naming_max_subgraph_size(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(xgkn.kernel, "MAX_BLOCK_ENTRIES", 100)
    config = write_config(tmp_path, tmp_path / "out")
    assert main(["prepare", "-c", str(config)]) == 0
    assert main(["train", "-c", str(config)]) == 1
    err = capsys.readouterr().err
    assert "max_subgraph_size (now 5)" in err and "Traceback" not in err


def test_constant_features_train_at_walk_cap_zero(tmp_path):
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, out_dir)
    for command in ("prepare", "train"):
        assert main([command, "-c", str(config), "--set", "model.walk_cap=0"]) == 0, command
    checkpoint = json.loads((out_dir / "checkpoint_seed0.json").read_text())["model"]
    assert checkpoint["config"]["walk_cap"] == 0
    assert all(np.isfinite(f["adjacency_logits"]).all() for f in checkpoint["filters"])


def test_labelled_tu_pipeline_with_sidecar_masks(tmp_path, capsys):
    # node labels give non-uniform one-hot features, so training and
    # inference take the class-walk path, and the sidecar masks select by a1
    ds = generate_ba2motifs(16, Rng(3))
    ds = replace(ds, graphs=tuple(
        g.with_features(np.eye(3)[np.minimum(g.degrees(), 3) - 1]) for g in ds.graphs))
    write_tu_dataset(ds, str(tmp_path / "tu"), "LAB")
    sidecar = tmp_path / "masks.txt"
    sidecar.write_text("".join(" ".join(map(str, m.ids)) + "\n"
                               for m in ds.gt_instance_masks))
    out_dir = tmp_path / "run"
    config = write_config(tmp_path, out_dir, extra={"dataset": {
        "kind": "tu", "path": str(tmp_path / "tu"), "name": "LAB",
        "gt_sidecar": str(sidecar)}})
    for command in ("prepare", "train", "explain", "evaluate", "report"):
        assert main([command, "-c", str(config)]) == 0, command
    prepared = json.loads((out_dir / "dataset.json").read_text())["dataset"]
    assert prepared["feature_policy"] == "node_labels"
    assert {len(set(map(tuple, g["features"]))) for g in prepared["graphs"]} == {3}
    thresholds = json.loads((out_dir / "thresholds.json").read_text())["thresholds"]
    assert {entry["criterion"] for entry in thresholds.values()} == {"a1"}
    report = json.loads((out_dir / "report.json").read_text())
    for name in ("accuracy", "A1", "I1", "I2", "I3", "I4", "M1", "M2", "M3"):
        assert name in report["metrics"], name
    assert "A1" in capsys.readouterr().out


def test_evaluate_refuses_a_checkpoint_of_the_wrong_shape(tmp_path, capsys):
    # a hand-edited checkpoint with a 5-node filter, or with a filter more
    # than num_filters, fails when it is loaded, naming the field
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, out_dir)
    for command in ("prepare", "train", "explain"):
        assert main([command, "-c", str(config)]) == 0, command
    path = out_dir / "checkpoint_seed0.json"
    original = path.read_text()
    edits = [
        (lambda m: m["filters"][1].update(adjacency_logits=np.zeros((5, 5)).tolist()),
         "'filters[1].adjacency_logits' has shape (5, 5), expected (3, 3)"),
        (lambda m: m["filters"].append(m["filters"][0]),
         "'filters' has 3 entries, expected num_filters = 2"),
    ]
    for edit, message in edits:
        payload = json.loads(original)
        edit(payload["model"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "-c", str(config)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("policy,row", [("degree_onehot", "two-hot"), (None, "real-valued"),
                                        ("constant", "equal")])
def test_train_refuses_rows_that_are_not_one_hot(tmp_path, capsys, policy, row):
    # a dataset.json hand-edited to hold one such feature row, or rows that
    # are all equal but not one-hot: train stops with the kernel's message
    # and exit 1 before it writes any checkpoint
    out_dir = tmp_path / "out"
    config = write_config(tmp_path, out_dir, extra={
        "dataset": {**TINY_CONFIG["dataset"], "feature_policy": policy}})
    assert main(["prepare", "-c", str(config)]) == 0
    path = out_dir / "dataset.json"
    payload = json.loads(path.read_text())
    graphs = payload["dataset"]["graphs"]
    features = graphs[5]["features"]
    if row == "equal":
        for g in graphs:
            g["features"] = [[0.5]] * len(g["features"])
    else:
        features[2] = [1.0, 1.0] + [0.0] * (len(features[2]) - 2) if row == "two-hot" \
            else [0.5]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["train", "-c", str(config)]) == 1
    err = capsys.readouterr().err
    assert "node feature rows must be one-hot" in err
    assert "Traceback" not in err
    assert not list(out_dir.glob("checkpoint_seed*.json"))


def horner_class_table(stack, cap: int):
    """In place of each row's class and class table, class 0 and the arrays
    of a walk_horner route, one entry per row, so that a training batch
    gathers its rows: each member as an offset from its own row (0 where the
    walk table never reaches it, which adds nothing) and the walk table,
    side by side in one row."""
    walks = anchor_walks(stack.blocks, cap)
    rows = np.arange(stack.members.shape[0])[:, None]
    offsets = np.where(walks.any(axis=0), stack.members - rows, 0)
    return np.zeros(rows.size, dtype=np.int64), \
        np.hstack([offsets, walks.transpose(1, 0, 2).reshape(rows.size, -1)])


def horner_route_responses(inputs, bank, encoder, training=False, products=None):
    """``oracles.walk_horner_responses`` of ``horner_class_table``'s rows."""
    n, width = inputs.table.shape[0], inputs.table.shape[1] // (inputs.cap + 2)
    members = inputs.table[:, :width].astype(np.int64) + np.arange(n)[:, None]
    walks = inputs.table[:, width:].reshape(n, inputs.cap + 1, width).transpose(1, 0, 2)
    return walk_horner_responses(inputs.raw_features, members, np.ascontiguousarray(walks),
                                 bank, encoder)


def test_class_route_leaves_metrics_and_selections_unchanged(tmp_path, monkeypatch):
    # one-hot degree features (15 columns) take numkit.class_walks; with the
    # oracle's walk_horner responses in its place, which sum in another
    # order, training, explain and evaluate must end at the same metric
    # values and the same selected node sets
    calls = []
    class_walks = xgkn.numkit.class_walks

    def counted(*args, **kwargs):
        calls.append(args[3].shape[0])
        return class_walks(*args, **kwargs)

    monkeypatch.setattr(xgkn.numkit, "class_walks", counted)
    results = []
    for route in ("class", "walk_horner"):
        if route == "walk_horner":
            # kernel.SplitWalks and kernel.walk_inputs take their tables
            # from kernel._class_table, and model.py binds stack_responses
            # by name, so each is patched there
            monkeypatch.setattr(xgkn.kernel, "_class_table", horner_class_table)
            monkeypatch.setattr(xgkn.model, "stack_responses", horner_route_responses)
        (tmp_path / route).mkdir()
        out_dir = tmp_path / route / "out"
        config = write_config(tmp_path / route, out_dir, extra={
            "dataset": {**TINY_CONFIG["dataset"], "feature_policy": "degree_onehot"},
            "model": {**TINY_CONFIG["model"], "num_filters": 4}})
        calls.clear()
        for command in ("prepare", "train", "explain", "evaluate"):
            assert main([command, "-c", str(config)]) == 0, command
        report = json.loads((out_dir / "report.json").read_text())
        selected = [[json.loads(line)["selected"] for line in
                     (out_dir / f"explanations_seed{seed}.jsonl").read_text().splitlines()]
                    for seed in TINY_CONFIG["seeds"]]
        results.append((report["metrics"], selected, sum(calls)))
    (metrics, selected, class_rows), (metrics_off, selected_off, class_rows_off) = results
    assert class_rows > 0 and class_rows_off == 0
    assert metrics == metrics_off
    assert selected == selected_off
