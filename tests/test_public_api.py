"""Public-API conformance: exports exist, are documented, and the
package metadata is coherent."""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.broadcast",
    "repro.cache",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.geometry",
    "repro.index",
    "repro.mobility",
    "repro.model",
    "repro.ondemand",
    "repro.p2p",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_have_docstrings(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{name}.{symbol} lacks a docstring"


def test_version_is_set():
    assert repro.__version__ == "1.0.0"


def test_quick_world_builds_and_answers():
    world = repro.quick_world(seed=1)
    result = world.run_knn_query(k=1)
    assert result.record.kind.value == "knn"
    assert len(result.answers) == 1


def test_public_classes_have_documented_public_methods():
    from repro.core import ResultHeap
    from repro.geometry import Rect, RectUnion

    for cls in (ResultHeap, Rect, RectUnion):
        for attr_name, attr in vars(cls).items():
            if attr_name.startswith("_"):
                continue
            if callable(attr):
                assert inspect.getdoc(attr), f"{cls.__name__}.{attr_name}"
