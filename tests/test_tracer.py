"""The bench tracer (``bench/tracer.py``) wraps package functions by module
and name, and reads some of their arguments by name. A function or argument
renamed in the package would turn its per-layer metrics into nulls, so these
tests pin the names the tracer relies on."""

import importlib
import importlib.util
import inspect
import re
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
