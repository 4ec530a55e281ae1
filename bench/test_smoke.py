"""Smoke test of the benchmark itself (not a tier-1 test).

    python -m pytest bench -q

Runs every workload in ``--smoke`` mode (all counts / 20, one rep),
untraced and traced, and checks the contract of the result line: it
parses, every name is well formed, every end-to-end metric is there
with its unit and a positive value, no per-layer metric is missing,
and ``BENCHMARK.json`` is exactly the table in ``bench/metrics.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_manifest_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert manifest == metrics.manifest()
    assert manifest["paths"] == ["bench"]
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in manifest["end_to_end"])


@pytest.mark.parametrize("workload", [name for name, _ in metrics.WORKLOADS])
def test_smoke_run_reports_every_metric(workload):
    end_to_end = run_smoke(workload, 0)
    assert set(end_to_end) == set(metrics.E2E_UNITS)
    for name, entry in end_to_end.items():
        assert entry["unit"] == metrics.E2E_UNITS[name]
        assert entry["value"] > 0
    per_layer = run_smoke(workload, 1)
    assert set(per_layer) == set(metrics.LAYER_UNITS)
    for name, entry in per_layer.items():
        assert entry["unit"] == metrics.LAYER_UNITS[name]
        assert isinstance(entry["value"], (int, float))
    assert os.path.getsize(os.path.join(HERE, "out", f"trace-{workload}.jsonl")) > 0
