"""Run one xgkn CLI stage with spans recorded around the public functions of
each ``src/xgkn`` module, from outside the package.

    python3 bench/tracer.py SPANS.json <xgkn cli arguments>

The wrappers replace every module-level binding of a traced function in the
loaded ``xgkn.*`` modules, so a function imported by name into another module
(``forward`` into ``xgkn.metrics``, ``node_importance`` into ``xgkn.cli``) is
traced wherever it is called from. A function that no longer exists is
listed as missing in the output instead of failing the run. Spans stay in
memory and are written to SPANS.json when the stage returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# (module, function, span name). A span name containing "{mode}" takes the
# call's ``mode`` argument; the modes it can take are listed after it.
TRACED = (
    ("cli", "load_prepared", "cli.load_prepared", ()),
    ("cli", "dataset_to_dict", "cli.dataset_to_dict", ()),
    ("data", "generate_ba2motifs", "data.generate", ()),
    ("data", "generate_bamultishapes", "data.generate", ()),
    ("data", "apply_feature_policy", "data.apply_feature_policy", ()),
    ("graphs", "k_hop_neighborhood", "graphs.k_hop_neighborhood", ()),
    ("graphs", "induced_subgraph", "graphs.induced_subgraph", ()),
    ("graphs", "perturb_features", "graphs.perturb_features", ()),
    ("graphs", "perturb_edges", "graphs.perturb_edges", ()),
    ("kernel", "build_subgraph_stack", "kernel.build_subgraph_stack", ()),
    ("kernel", "combine_stacks", "kernel.combine_stacks", ()),
    ("kernel", "stack_responses", "kernel.stack_responses", ()),
    ("numkit", "backward", "numkit.backward", ()),
    ("numkit", "adam_step", "numkit.adam_step", ()),
    ("model", "train", "model.train", ()),
    ("model", "forward", "model.forward", ()),
    ("model", "evaluate_accuracy", "model.evaluate_accuracy", ()),
    ("model", "perturb_filters", "model.perturb_filters", ()),
    ("explainer", "node_importance", "explainer.node_importance", ()),
    ("explainer", "exact_shapley", "explainer.exact_shapley", ()),
    ("explainer", "propagate_to_nodes", "explainer.propagate_to_nodes", ()),
    ("explainer", "threshold_explanation", "explainer.threshold_explanation", ()),
    ("explainer", "select_threshold", "explainer.select_threshold", ()),
    ("explainer", "criterion_score", "explainer.criterion_score", ()),
    ("metrics", "metric_a1", "metrics.A1", ()),
    ("metrics", "metric_a2", "metrics.A2", ()),
    ("metrics", "metric_sufficiency_necessity", "metrics.{mode}", ("I1", "I2")),
    ("metrics", "metric_robustness", "metrics.{mode}", ("I3", "I4")),
    ("metrics", "metric_correctness", "metrics.{mode}", ("M1", "M2")),
    ("metrics", "metric_redundancy", "metrics.M3", ()),
    ("ged", "ged_exact", "ged.ged_exact", ()),
)


def _stack_attrs(bound, result):
    return {"rows": int(result.raw_features.shape[0])}


def _responses_attrs(bound, result):
    raw = bound["stack"].raw_features
    return {"uniform": int(bool(raw.shape[0]) and bool((raw == raw[0]).all()))}


def _shapley_attrs(bound, result):
    return {"efficiency_gap_max": float(result.efficiency_gap())}


def _propagate_attrs(bound, result):
    return {"inactive": len(result[1])}


def _monte_carlo_attrs(bound, result):
    per_graph = bound["cfg"].samples_per_graph if bound["mode"] in ("I1", "I2") else 1
    return {"used": int(result.n_used), "skipped": int(result.n_skipped),
            "intended": len(bound["ds"].graphs) * per_graph}


# Counts read from a call's bound arguments and its result, by function.
ATTRS = {
    "build_subgraph_stack": _stack_attrs,
    "stack_responses": _responses_attrs,
    "exact_shapley": _shapley_attrs,
    "propagate_to_nodes": _propagate_attrs,
    "metric_sufficiency_necessity": _monte_carlo_attrs,
    "metric_robustness": _monte_carlo_attrs,
}


class Tracer:
    """Records ``[name, start, end, parent, attrs]`` spans in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, span_name: str, attrs=None):
        spans, open_spans = self.spans, self._open
        signature = inspect.signature(fn)
        templated = "{mode}" in span_name
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            name = span_name
            if templated or attrs is not None:
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    bound = call.arguments
                except TypeError:
                    bound = {}  # let the call itself report the bad arguments
                if templated:
                    name = span_name.format(mode=bound.get("mode", "unknown"))
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(bound, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    span[4] = None  # the result or arguments changed shape
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function and rebind it in all given modules."""
        for module_name, fn_name, span_name, modes in TRACED:
            original = getattr(modules.get(module_name), fn_name, None)
            if not callable(original):
                names = [span_name.format(mode=m) for m in modes] or [span_name]
                self.missing.extend(names)
                continue
            wrapper = self.wrap(original, span_name, ATTRS.get(fn_name))
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = importlib.import_module("xgkn.cli")
    modules = {name.split(".", 1)[1]: module for name, module in list(sys.modules.items())
               if name.startswith("xgkn.") and module is not None}
    tracer = Tracer()
    tracer.install(modules)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
