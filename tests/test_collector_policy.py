"""The collector policy a world sets when its construction ends.

``QueryWorld._tenure`` freezes what construction allocated and raises
the generational thresholds.  It is process-global state, so what it
leaves behind is observed in a fresh interpreter; that it cannot move
an answer is observed by running the same queries with the collector
switched off altogether.
"""

import gc
import hashlib
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from repro.codec import encode_records
from repro.experiments import Simulation
from repro.workloads import (
    LA_CITY,
    QueryKind,
    ScalingClampWarning,
    scaled_parameters,
)

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

PROBE = """
import gc, warnings
from repro.experiments import Simulation
from repro.shard import ShardedSimulation
from repro.workloads import RIVERSIDE_COUNTY, scaled_parameters

warnings.simplefilter("ignore")
params = scaled_parameters(RIVERSIDE_COUNTY, 0.1)
assert gc.get_threshold() != (50_000, 50, 50) and gc.get_freeze_count() == 0
{build}
print(gc.get_threshold(), gc.get_freeze_count() > 0)
"""

BUILDS = {
    "simulation": "world = Simulation(params, seed=1)",
    "sharded": (
        "world = ShardedSimulation(params, seed=1, shards=2,"
        " backend='inprocess')"
    ),
    # idempotent: a second world leaves the same policy behind
    "twice": "worlds = [Simulation(params, seed=s) for s in (1, 2)]",
}


def probe(build: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(build=build)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_constructing_a_world_sets_the_policy(build):
    assert probe(BUILDS[build]) == "(50000, 50, 50) True"


def run(seed: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalingClampWarning)
        params = scaled_parameters(LA_CITY, 0.03)
    sim = Simulation(params, seed=seed)
    records = sim.run_workload(QueryKind.KNN, 0, 200).records
    records += sim.run_workload(QueryKind.WINDOW, 0, 100).records
    digest = hashlib.sha256(encode_records(records)).hexdigest()
    return digest, sim.share_states()


def test_answers_do_not_depend_on_the_collector():
    collected = run(seed=4)
    gc.disable()
    try:
        uncollected = run(seed=4)
    finally:
        gc.enable()
    assert collected == uncollected
