"""Public-API conformance: exports exist, are documented, and the
package metadata is coherent."""

import importlib
import inspect
import pathlib
import subprocess
import sys

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


# The dev extra's test oracles and property engine: a numpy-only
# install has none of them.
DEV_ONLY = ("networkx", "scipy", "hypothesis")

NUMPY_ONLY_PROBE = """
import importlib, sys, sysconfig

for name in {blocked!r}:
    sys.modules[name] = None  # any import of it raises ImportError
before = set(sys.modules)
for name in {modules!r}:
    importlib.import_module(name)

import numpy as np
from repro.geometry import Rect
from repro.mobility import GridRoadNetwork, RoadTrajectory

network = GridRoadNetwork(Rect(0, 0, 20, 20), 2.0, np.random.default_rng(5))
trip = RoadTrajectory(network, np.random.default_rng(6))
for step in range(100):
    trip.position_at(step * 60.0)
    trip.heading_at(step * 60.0)
# What the imports and the drive loaded from installed packages.
site = tuple({{sysconfig.get_path("purelib"), sysconfig.get_path("platlib")}})
print(sorted({{
    name.partition(".")[0] for name, module in sys.modules.items()
    if name not in before
    and (getattr(module, "__file__", None) or "").startswith(site)
}}))
"""


def test_numpy_is_the_only_runtime_dependency():
    modules = PACKAGES + [
        "repro.cli", "repro.shard", "repro.serve", "repro.check",
        "repro.codec",
    ]
    done = subprocess.run(
        [
            sys.executable, "-c",
            NUMPY_ONLY_PROBE.format(blocked=DEV_ONLY, modules=modules),
        ],
        env={"PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['numpy']"


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
