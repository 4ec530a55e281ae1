"""The paper's claims about Figures 10–15 and figc, as the FIGURES rows
carry them.

Each claim is judged on the committed ``make experiments`` run
(``benchmarks/results/fig*.csv``, read back into panels), must fail
under one targeted change to its panel, and ``repro.cli figure``
prints one verdict per claim after the figure's panels.
"""

import copy
import csv
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import FIGURES, SweepSeries, check_claims

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
FIGS = ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "figc"]
SBNN, SBWQ, AIR = "Solved by SBNN", "Solved by SBWQ", "Solved by Broadcast"
RATIO = "Broadcast Access Ratio (naive/monitored)"
LA, SUBURBIA, RIVERSIDE = 0, 1, 2


def committed_panels(name: str) -> list[SweepSeries]:
    """The LA, Suburbia and Riverside panels of ``<name>.csv``."""
    panels: dict[str, SweepSeries] = {}
    with (RESULTS / f"{name}.csv").open() as handle:
        for row in csv.DictReader(handle):
            panel = panels.setdefault(
                row["region"], SweepSeries(row["region"], row["x_label"], [], {})
            )
            x = float(row["x"])
            if not panel.xs or panel.xs[-1] != x:
                panel.xs.append(x)
            panel.series.setdefault(row["series"], []).append(float(row["percent"]))
    return list(panels.values())


@pytest.mark.parametrize("name", FIGS)
def test_every_claim_holds_on_the_committed_run(name):
    panels = committed_panels(name)
    assert [len(panel.xs) for panel in panels] == [len(panels[0].xs)] * 3
    verdicts = check_claims(name, panels)
    assert [text for holds, text in verdicts if not holds] == []


# (figure, claim index, region, series, position, value): one change to
# the committed panels that breaks that claim.  ``position=None``
# overwrites the whole series.
BREAKS = [
    ("fig10", 0, RIVERSIDE, SBNN, -1, 0.0),
    ("fig10", 1, LA, AIR, -1, 40.0),
    ("fig10", 2, RIVERSIDE, SBNN, -1, 100.0),
    ("fig10", 3, RIVERSIDE, AIR, -1, 0.0),
    ("fig10", 4, LA, AIR, 0, 60.0),
    ("fig11", 0, SUBURBIA, SBNN, -1, 0.0),
    ("fig11", 1, LA, AIR, -1, 100.0),
    ("fig11", 2, RIVERSIDE, SBNN, 1, 100.0),
    ("fig12", 0, SUBURBIA, AIR, 0, 100.0),
    ("fig12", 1, LA, AIR, -1, 17.0),
    ("fig12", 2, RIVERSIDE, AIR, 0, 0.0),
    ("fig13", 0, LA, SBWQ, -1, 0.0),
    ("fig13", 1, RIVERSIDE, SBWQ, -1, 100.0),
    ("fig13", 2, SUBURBIA, AIR, 0, 50.0),
    ("fig14", 0, SUBURBIA, SBWQ, 0, 100.0),
    ("fig15", 0, LA, SBWQ, None, 50.0),
    ("fig15", 1, RIVERSIDE, SBWQ, 0, 100.0),
    ("figc", 0, SUBURBIA, RATIO, 1, 1.0),
    ("figc", 1, RIVERSIDE, RATIO, -1, 3.0),
]


def test_every_claim_has_a_break():
    claims = [(name, i) for name in FIGURES for i in range(len(FIGURES[name][4]))]
    assert sorted((name, i) for name, i, *_ in BREAKS) == sorted(claims)
    assert len(claims) == 19


@pytest.mark.parametrize(
    "name, index, region, series, position, value",
    BREAKS,
    ids=[f"{name}-{index}" for name, index, *_ in BREAKS],
)
def test_a_targeted_change_fails_the_claim(
    name, index, region, series, position, value
):
    panels = copy.deepcopy(committed_panels(name))
    column = panels[region].series[series]
    if position is None:
        column[:] = [value] * len(column)
    else:
        column[position] = value
    holds, text = check_claims(name, panels)[index]
    assert not holds, text


def test_figure_command_prints_one_verdict_per_claim(capsys):
    code = main([
        "figure", "fig12", "--values", "3", "15", "--scale", "0.02",
        "--warmup", "30", "--measure", "20",
    ])
    assert code == 0
    out = capsys.readouterr().out
    verdicts = re.findall(r"^claim (PASS|FAIL) fig12: (.*)$", out, re.M)
    assert [text for _, text in verdicts] == [text for text, _ in FIGURES["fig12"][4]]
    assert out.count("claim ") == len(verdicts)
    assert out.index("Riverside County") < out.index("claim ")
