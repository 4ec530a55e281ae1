"""Lemma 3.2 robustness — how calibrated are the correctness
probabilities, and what does POI clustering do to them?

The paper assumes Poisson POIs "based on our observation of several
common POI types".  This bench measures the reliability of the
predicted probabilities on (a) a uniform field (the assumption) and
(b) a Neyman-Scott clustered field (reality for gas stations along
arterials), reporting reliability bins and Brier scores.
"""

import numpy as np

from repro.analysis import correctness_calibration
from repro.experiments import format_table
from repro.geometry import Rect
from repro.workloads import clustered_pois, generate_pois

from _util import emit

BOUNDS = Rect(0, 0, 20, 20)


def run():
    results = {}
    for name, field in (
        ("uniform (Poisson)", generate_pois(BOUNDS, 400, np.random.default_rng(1))),
        (
            "clustered (Neyman-Scott)",
            clustered_pois(
                BOUNDS, 400, np.random.default_rng(2), cluster_count=8,
                cluster_sigma=0.8,
            ),
        ),
    ):
        results[name] = correctness_calibration(
            field, BOUNDS, np.random.default_rng(3), trials=500
        )
    rows = []
    for name, result in results.items():
        for b in result.bins:
            if b.count:
                rows.append(
                    [
                        name,
                        f"[{b.lower:.1f},{b.upper:.1f})",
                        b.count,
                        round(b.mean_predicted, 2),
                        round(b.empirical_rate, 2),
                    ]
                )
        rows.append([name, "Brier", result.sample_count, "-", round(result.brier_score, 3)])
    table = format_table(
        ["field", "bin", "n", "mean predicted", "empirical"],
        rows,
        title="Lemma 3.2 correctness-probability calibration",
    )
    return results, table


def test_poisson_assumption_calibration():
    results, table = run()
    emit("Lemma 3.2 calibration", table)

    uniform = results["uniform (Poisson)"]
    clustered = results["clustered (Neyman-Scott)"]
    # On its own assumption the model is informative and decent.
    assert uniform.brier_score < 0.25
    # Clustering can only make the Poisson pricing worse (or equal).
    assert uniform.brier_score <= clustered.brier_score + 0.05
