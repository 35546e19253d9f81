"""The bench tracer (``bench/tracer.py``) wraps package functions by module
and name, and reads some of their arguments by name. A function or argument
renamed in the package would turn its per-layer metrics into nulls, so these
tests pin the names the tracer relies on."""

import importlib
import importlib.util
import inspect
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")
spans = load_bench_module("spans")


@pytest.mark.parametrize("module_name, fn_name, span_name, modes", tracer.TRACED,
                         ids=[entry[2] + ":" + entry[1] for entry in tracer.TRACED])
def test_traced_function_exists(module_name, fn_name, span_name, modes):
    fn = getattr(importlib.import_module(f"xgkn.{module_name}"), fn_name, None)
    assert callable(fn), f"xgkn.{module_name}.{fn_name} is traced but missing"
    if "{mode}" in span_name:
        assert "mode" in inspect.signature(fn).parameters


def traced_function(fn_name):
    (module_name,) = {m for m, f, _, _ in tracer.TRACED if f == fn_name}
    return getattr(importlib.import_module(f"xgkn.{module_name}"), fn_name)


def test_attrs_read_arguments_the_functions_bind():
    read = set()
    for fn_name, attrs in tracer.ATTRS.items():
        names = set(re.findall(r'bound\["(\w+)"\]', inspect.getsource(attrs)))
        parameters = inspect.signature(traced_function(fn_name)).parameters
        assert names <= set(parameters), f"{fn_name} lacks {names - set(parameters)}"
        read |= names
    assert read == {"stack", "cfg", "mode", "ds"}


def tiny_config(tmp_path, features, criterion, seeds):
    config = {
        "dataset": {"kind": "ba2motifs", "n_graphs": 16, "seed": 3,
                    "feature_policy": None if features == "constant" else features},
        "model": {"num_filters": 3, "filter_size": 3, "embed_dim": 4,
                  "hop_radius": 1, "max_subgraph_size": 5},
        "train": {"epochs": 4, "batch_size": 16},
        "threshold": {"criterion": criterion, "grid": [0.5, 0.7]},
        "aim": {"samples_per_graph": 2},
        "seeds": seeds,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def install_tracer(monkeypatch):
    """The xgkn CLI module and a tracer installed in every loaded xgkn
    module, the way ``tracer.main`` installs it; the rebindings are undone
    after the test."""
    cli = importlib.import_module("xgkn.cli")
    modules = {name.split(".", 1)[1]: module for name, module in list(sys.modules.items())
               if name.startswith("xgkn.") and module is not None}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            monkeypatch.setattr(module, attr, value)
    t = tracer.Tracer()
    t.install(modules)
    return cli, t


@pytest.mark.parametrize("features", ["constant", "degree_onehot"])
def test_attrs_of_a_real_run_are_finite(tmp_path, monkeypatch, features):
    # the traced bench run writes the attributes as JSON, which has no NaN or
    # infinity; every ATTRS function must give finite numbers on real results
    path = tiny_config(tmp_path, features, "i1+i2", [0])
    cli, t = install_tracer(monkeypatch)
    for command in ("prepare", "train", "explain", "evaluate"):
        assert cli.main([command, "-c", str(path)]) == 0
    names = {fn_name: {span_name.format(mode=m) for m in modes} or {span_name}
             for _, fn_name, span_name, modes in tracer.TRACED}
    for fn_name in tracer.ATTRS:
        spans = [s for s in t.spans if s[0] in names[fn_name]]
        assert spans, f"{fn_name} was not called"
        for span in spans:
            assert span[4] is not None, f"{fn_name}'s attributes could not be read"
            for key, value in span[4].items():
                assert math.isfinite(value), f"{span[0]}.{key} = {value}"
            json.dumps(span[4], allow_nan=False)


@pytest.mark.parametrize("criterion", ["auto", "i1+i2"])
@pytest.mark.parametrize("features", ["constant", "degree_onehot"])
def test_layer_metrics_of_a_real_run_are_finite(tmp_path, monkeypatch, capsys, features,
                                                criterion):
    # the last line of a traced bench run carries these values as JSON: a
    # missing traced function or a ratio over zero calls gives null there
    path = tiny_config(tmp_path, features, criterion, [0, 1])
    cli, t = install_tracer(monkeypatch)
    stage_spans, stage_walls = {}, {}
    for command in spans.STAGES:
        start = time.perf_counter()
        assert cli.main([command, "-c", str(path)]) == 0, command
        stage_walls[command] = time.perf_counter() - start
        stage_spans[command] = list(t.spans)
        t.spans.clear()  # each stage is its own process in the bench
    assert t.missing == []
    values = spans.layer_metrics(stage_spans, stage_walls, set(t.missing))
    for name, value in values.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value}"
    json.dumps(values, allow_nan=False)
    # training batches hand stack_responses their own rows: every one is
    # uniform on constant features and none is on one-hot degrees
    train_only = spans.layer_metrics({"train": stage_spans["train"]},
                                     {"train": stage_walls["train"]}, set())
    share = train_only["kernel.stack_responses.uniform_share"]
    assert share == (1.0 if features == "constant" else 0.0)
