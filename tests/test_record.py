import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xgkn.cli  # noqa: F401  (loads every module that defines a record)
from xgkn.data import Dataset, Split, generate_ba2motifs
from xgkn.errors import DatasetFormatError
from xgkn.explainer import Attribution, Explanation, ThresholdSelection
from xgkn.graphs import Graph, NodeSet, Rng
from xgkn.kernel import SubgraphStack, Subgraphs, WalkInputs, build_stack, walk_inputs
from xgkn.metrics import AimConfig, AimReport, MetricResult, MetricSummary
from xgkn.model import ForwardPass, ModelConfig, TrainConfig, forward_batch, init_model
from xgkn.numkit import TTestResult
from xgkn.record import FrozenRecordError, Record, fields, replace

from conftest import path_graph


def _forward_pass() -> ForwardPass:
    ds = generate_ba2motifs(2, Rng(0))
    config = ModelConfig(num_filters=2, filter_size=3, embed_dim=4, hop_radius=1,
                         max_subgraph_size=4)
    return forward_batch(init_model(config, ds.feature_dim, ds.num_classes, Rng(0)),
                         list(ds.graphs))


# One valid instance of each record class of the package
EXAMPLES = {
    Graph: lambda: path_graph(3),
    NodeSet: lambda: NodeSet((2, 0, 1), root=4),
    Dataset: lambda: generate_ba2motifs(4, Rng(0)),
    Split: lambda: Split((0, 1), (2,), 0, 3),
    SubgraphStack: lambda: build_stack([path_graph(3)], 1, 3)[0],
    Subgraphs: lambda: Subgraphs.whole([path_graph(3)]),
    WalkInputs: lambda: walk_inputs(build_stack([path_graph(3)], 1, 3)[0], 2),
    ModelConfig: lambda: ModelConfig(num_filters=3),
    TrainConfig: lambda: TrainConfig(epochs=5),
    ForwardPass: _forward_pass,
    Attribution: lambda: Attribution(np.zeros(1), np.ones((1, 2)), np.full(1, 2.0),
                                     np.zeros(1, dtype=np.int64)),
    Explanation: lambda: Explanation(np.ones(3), NodeSet((0, 2)), 0.5),
    ThresholdSelection: lambda: ThresholdSelection(0.5, "a1", {0.5: 0.25}),
    AimConfig: lambda: AimConfig(samples_per_graph=3),
    MetricResult: lambda: MetricResult("A1", 0.5, 3),
    MetricSummary: lambda: MetricSummary.from_values([0.25, 0.5], 2),
    AimReport: lambda: AimReport({}, {"seed": 1}, ("note",)),
    TTestResult: lambda: TTestResult(1.5, 3.0, 0.25, False, 0.05),
}

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


class Unequal:
    """A field value equal to nothing, which NumPy arrays defer to."""

    __array_ufunc__ = None

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__


def values_of(record) -> dict:
    return {key: getattr(record, key) for key in fields(record)}


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for key, value in values_of(a).items():
        other = getattr(b, key)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and np.array_equal(value, other), key
        else:
            assert value == other, key


def bypassing_init(cls, values: dict):
    """An instance of ``cls`` with these field values, unchecked."""
    record = object.__new__(cls)
    for key, value in values.items():
        object.__setattr__(record, key, value)
    return record


def test_every_record_class_has_an_example():
    assert set(RECORDS) == set(EXAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_are_the_annotations_in_order(self, cls):
        assert list(fields(cls)) == list(cls.__annotations__)
        assert fields(EXAMPLES[cls]()) is fields(cls)

    def test_positional_keyword_and_default_construction(self, cls):
        record = EXAMPLES[cls]()
        values = values_of(record)
        assert_same_fields(cls(*values.values()), record)
        assert_same_fields(cls(**values), record)
        required = {key: value for key, value in values.items() if key not in vars(cls)}
        defaulted = cls(**required)
        for key in fields(cls):
            if key in vars(cls):
                assert getattr(defaulted, key) == vars(cls)[key], key

    def test_missing_unknown_and_duplicate_arguments_raise_type_error(self, cls):
        values = values_of(EXAMPLES[cls]())
        first = next(iter(values))
        with pytest.raises(TypeError, match="unexpected"):
            cls(**values, bogus=1)
        with pytest.raises(TypeError, match="multiple values"):
            cls(values[first], **values)
        with pytest.raises(TypeError, match="takes"):
            cls(*values.values(), None)
        required = [key for key in values if key not in vars(cls)]
        if required:
            with pytest.raises(TypeError, match="missing"):
                cls(**{key: value for key, value in values.items() if key != required[-1]})

    def test_assigning_or_deleting_a_field_is_refused(self, cls):
        record = EXAMPLES[cls]()
        before = values_of(record)
        assert issubclass(FrozenRecordError, AttributeError)
        for key in fields(cls):
            with pytest.raises(FrozenRecordError):
                setattr(record, key, None)
            with pytest.raises(FrozenRecordError):
                delattr(record, key)
        with pytest.raises(FrozenRecordError):
            record.extra = 1
        assert all(getattr(record, key) is value for key, value in before.items())

    def test_eq_and_hash_go_by_the_fields(self, cls):
        record = EXAMPLES[cls]()
        values = values_of(record)
        twin = bypassing_init(cls, values)
        assert record == twin and not record != twin
        for key in values:
            assert record != bypassing_init(cls, {**values, key: Unequal()}), key
        assert record != object()
        try:
            expected = hash(tuple(values.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected

    def test_repr_lists_the_fields(self, cls):
        record = EXAMPLES[cls]()
        assert repr(record) == f"{cls.__qualname__}(" + ", ".join(
            f"{key}={value!r}" for key, value in values_of(record).items()) + ")"

    def test_replace_builds_a_checked_copy(self, cls):
        record = EXAMPLES[cls]()
        assert_same_fields(replace(record), record)
        with pytest.raises(TypeError, match="unexpected"):
            replace(record, bogus=1)


def test_replace_runs_post_init_again():
    graph = path_graph(3)
    asymmetric = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        replace(graph, adjacency=asymmetric)
    ds = generate_ba2motifs(4, Rng(0))
    with pytest.raises(DatasetFormatError, match="mask"):
        replace(ds, gt_instance_masks=ds.gt_instance_masks[:-1])
    assert replace(NodeSet((1, 2)), ids=(5, 3)).ids == (3, 5)
    assert replace(MetricResult("A1", 0.5, 3), value=1.0 + 1e-12).value == 1.0


def test_cli_import_generates_no_dataclass():
    # the records share their methods; a @dataclass would generate and exec
    # about six methods per class on every stage process's start-up
    code = ("import sys, xgkn.cli\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
            "found = [f'{name}.{attr}' for name, module in list(sys.modules.items())\n"
            "         if name.startswith('xgkn') for attr, value in vars(module).items()\n"
            "         if isinstance(value, type) and hasattr(value, '__dataclass_fields__')]\n"
            "assert not found, found\n")
    env = {**os.environ, "PYTHONPATH": str(Path(xgkn.cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
