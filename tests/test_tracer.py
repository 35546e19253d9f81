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
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


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


@pytest.mark.parametrize("features", ["constant", "degree_onehot"])
def test_attrs_of_a_real_run_are_finite(tmp_path, monkeypatch, features):
    # the traced bench run writes the attributes as JSON, which has no NaN or
    # infinity; every ATTRS function must give finite numbers on real results
    config = {
        "dataset": {"kind": "ba2motifs", "n_graphs": 16, "seed": 3,
                    "feature_policy": None if features == "constant" else features},
        "model": {"num_filters": 3, "filter_size": 3, "embed_dim": 4,
                  "hop_radius": 1, "max_subgraph_size": 5},
        "train": {"epochs": 4, "batch_size": 16},
        "threshold": {"criterion": "i1+i2", "grid": [0.5, 0.7]},
        "aim": {"samples_per_graph": 2},
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cli = importlib.import_module("xgkn.cli")
    modules = {name.split(".", 1)[1]: module for name, module in list(sys.modules.items())
               if name.startswith("xgkn.") and module is not None}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            monkeypatch.setattr(module, attr, value)  # undone after the test
    t = tracer.Tracer()
    t.install(modules)
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
