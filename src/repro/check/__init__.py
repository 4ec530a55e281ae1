"""Differential-correctness harness (``repro.check``).

The paper's value proposition is an *exactness* claim — Lemma 3.1
verifies peer-supplied NNs, Lemma 3.2 prices the risk of approximate
ones — so this package keeps the production pipelines honest against
brute-force ground truth:

* :mod:`repro.check.oracles` — exhaustive kNN / window-scan / area
  oracles, implemented independently of the structures they check;
* :mod:`repro.check.invariants` — opt-in runtime assertions at the
  pipeline seams, enabled with ``REPRO_CHECK=1``;
* :mod:`repro.check.metamorphic` — relations that must hold between
  *pairs* of runs (translation invariance, k-monotonicity,
  window-shrink duality, grid-vs-sweep union builds);
* :mod:`repro.check.differential` — the seeded fuzz campaign behind
  ``python -m repro.cli check``: random worlds from the Table 3
  parameter sets, query streams with faults off and on, disagreement
  shrinking, and JSON reproducer artifacts.

Only :mod:`~repro.check.invariants` is imported eagerly: the
production pipelines call its seam checks, and it depends on nothing
but :mod:`repro.errors`.  Everything else resolves lazily (PEP 562)
because :mod:`~repro.check.differential` imports the experiment
harness — which imports the pipelines — and an eager import here
would close that cycle.
"""

from __future__ import annotations

from .invariants import (
    InvariantViolation,
    check_cache,
    check_enabled,
    check_heap,
    check_record,
    check_retrieval_cost,
    check_traffic,
    check_union,
    set_check_enabled,
)

_LAZY = {
    "CampaignReport": "differential",
    "ContinuousCampaignReport": "continuous",
    "run_continuous_campaign": "continuous",
    "DEFAULT_FAULTS": "differential",
    "DifferentialChecker": "differential",
    "Disagreement": "differential",
    "PARAM_SETS": "differential",
    "run_campaign": "differential",
    "shrink_disagreement": "differential",
    "write_artifact": "differential",
    "grid_vs_sweep": "metamorphic",
    "grid_vs_sweep_campaign": "metamorphic",
    "knn_radius_monotone": "metamorphic",
    "safe_region_contract": "metamorphic",
    "translation_invariant_knn": "metamorphic",
    "window_shrink_duality": "metamorphic",
    "oracle_knn": "oracles",
    "oracle_knn_ids": "oracles",
    "oracle_union_area": "oracles",
    "oracle_window_ids": "oracles",
    "rects_pairwise_disjoint": "oracles",
    "world_digest": "oracles",
}

__all__ = sorted(
    [
        "InvariantViolation",
        "check_cache",
        "check_enabled",
        "check_heap",
        "check_record",
        "check_retrieval_cost",
        "check_traffic",
        "check_union",
        "set_check_enabled",
        *_LAZY,
    ]
)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
