"""Pinned answers for every in-repo scenario, distance and epsilon.

Status, exact distance and exit code are the ones the package gave before
the solver moved to HiGHS.  Among several optima of equal distance the
solver may pick a different refinement, so the MILP engines' refinement is
not pinned here; the exact re-verification in the engine vouches for it.
The exhaustive engines' pick among equal optima is fixed by their tie rule,
so their refined SQL is pinned too.
"""

import json
from pathlib import Path

import pytest

from rankrefine.cli import EXIT_INVALID, EXIT_NO_REFINEMENT, EXIT_REFINED, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = SCENARIOS / "data"

RELATIONS = {
    "astronauts": {"Astronauts": "astronauts.csv"},
    "scholarship": {"Students": "students.csv", "Activities": "activities.csv"},
    "no_perfect": {"Jobs": "no_perfect.csv"},
}

# (scenario, distance, epsilon) -> (exit code, status, distance)
GOLDEN = {
    ("astronauts", "pred", "0"): (EXIT_REFINED, "refined", "1"),
    ("astronauts", "pred", "1/2"): (EXIT_REFINED, "refined", "0.25"),
    ("astronauts", "jaccard", "0"): (EXIT_REFINED, "refined", "1"),
    ("astronauts", "jaccard", "1/2"): (EXIT_REFINED, "refined", "1/3"),
    ("astronauts", "kendall", "0"): (EXIT_REFINED, "refined", 100),
    ("astronauts", "kendall", "1/2"): (EXIT_REFINED, "refined", 5),
    ("scholarship", "pred", "0"): (EXIT_REFINED, "refined", "0.5"),
    ("scholarship", "pred", "1/2"): (EXIT_REFINED, "refined", "0.5"),
    ("scholarship", "jaccard", "0"): (EXIT_REFINED, "refined", "2/7"),
    ("scholarship", "jaccard", "1/2"): (EXIT_REFINED, "refined", "2/7"),
    ("scholarship", "kendall", "0"): (EXIT_REFINED, "refined", 5),
    ("scholarship", "kendall", "1/2"): (EXIT_REFINED, "refined", 5),
    ("no_perfect", "pred", "0"): (EXIT_NO_REFINEMENT, "no_refinement", None),
    ("no_perfect", "pred", "1/2"): (EXIT_REFINED, "refined", "0.5"),
    # the original query returns 2 tuples, fewer than k* = 3, so outcome
    # distances are undefined and the input is rejected
    ("no_perfect", "jaccard", "0"): (EXIT_INVALID, None, None),
    ("no_perfect", "jaccard", "1/2"): (EXIT_INVALID, None, None),
    ("no_perfect", "kendall", "0"): (EXIT_INVALID, None, None),
    ("no_perfect", "kendall", "1/2"): (EXIT_INVALID, None, None),
}

_ASTRONAUTS = "SELECT * FROM Astronauts WHERE {} ORDER BY Flight_Hours DESC"
_SCHOLARSHIP = ("SELECT DISTINCT ID, Gender, Income FROM Students NATURAL JOIN Activities "
                "WHERE GPA >= {} ORDER BY SAT DESC")
_RB_SO = _SCHOLARSHIP.format("3.7 AND (Activity = 'RB' OR Activity = 'SO')")
_GD_RB = _SCHOLARSHIP.format("3.6 AND (Activity = 'GD' OR Activity = 'RB')")
_MO_RB = _SCHOLARSHIP.format("3.6 AND (Activity = 'MO' OR Activity = 'RB')")
_ACTIVE = _ASTRONAUTS.format("Space_Flights >= 2.5 AND Status = 'Active'")
_RETIRED = _ASTRONAUTS.format("Space_Flights >= 0 AND Status = 'Retired'")

# (scenario, distance, epsilon) -> the refined SQL of ``naive`` and ``naive+prov``
NAIVE_SQL = {
    ("astronauts", "pred", "0"): _ASTRONAUTS.format(
        "Space_Flights >= 2 AND (Status = 'Management' OR Status = 'Retired')"),
    ("astronauts", "pred", "1/2"): _ACTIVE,
    ("astronauts", "jaccard", "0"): _RETIRED,
    ("astronauts", "jaccard", "1/2"): _ACTIVE,
    ("astronauts", "kendall", "0"): _RETIRED,
    ("astronauts", "kendall", "1/2"): _ACTIVE,
    ("scholarship", "pred", "0"): _RB_SO,
    ("scholarship", "pred", "1/2"): _RB_SO,
    ("scholarship", "jaccard", "0"): _GD_RB,
    ("scholarship", "jaccard", "1/2"): _GD_RB,
    ("scholarship", "kendall", "0"): _MO_RB,
    ("scholarship", "kendall", "1/2"): _MO_RB,
    ("no_perfect", "pred", "0"): None,
    ("no_perfect", "pred", "1/2"):
        "SELECT * FROM Jobs WHERE (X = 'A' OR X = 'B') AND Y = 'C' ORDER BY Score DESC",
}


def _args(scenario, distance, epsilon):
    args = ["run"]
    for name, csv in RELATIONS[scenario].items():
        args += ["--data", f"{name}={DATA / csv}"]
    return args + [
        "--query", str(SCENARIOS / scenario / "query.sql"),
        "--constraints", str(SCENARIOS / scenario / "constraints.json"),
        "--distance", distance,
        "--epsilon", epsilon,
    ]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_golden_scenario(case, capsys):
    want_exit, want_status, want_distance = GOLDEN[case]
    reports = []
    for _ in range(2):
        assert main(_args(*case)) == want_exit
        out = capsys.readouterr().out
        if want_status is None:
            assert out == ""
            return
        payload = json.loads(out)
        assert payload["status"] == want_status
        assert payload["distance"] == want_distance
        payload.pop("timing_ms")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1], "two runs must agree apart from timing"


@pytest.mark.parametrize("case", sorted(c for c, (_, status, _) in GOLDEN.items() if status),
                         ids="/".join)
def test_exhaustive_engines_pick_the_pinned_optimum(case, capsys):
    for engine in ("naive", "naive+prov"):
        assert main(_args(*case) + ["--engine", engine]) == GOLDEN[case][0]
        assert json.loads(capsys.readouterr().out)["refined_sql"] == NAIVE_SQL[case], engine


def test_select_star_is_rendered_bare(capsys):
    assert main(_args("astronauts", "pred", "1/2")) == EXIT_REFINED
    sql = json.loads(capsys.readouterr().out)["refined_sql"]
    assert sql.startswith("SELECT * FROM Astronauts WHERE ")


@pytest.mark.parametrize("scenario, checked", [("scholarship", 186), ("astronauts", 56),
                                               ("no_perfect", 9)])
def test_exhaustive_search_checks_each_selection_once(scenario, checked, capsys):
    """One candidate per numeric selection and categorical value set: on
    ``scholarship``, the 6 selections of ``GPA >=`` times 31 value sets of
    ``Activity``; the constant grid held 403 candidates there."""
    for engine in ("naive", "naive+prov"):
        main(_args(scenario, "pred", "0") + ["--engine", engine])
        assert json.loads(capsys.readouterr().out)["model_stats"] == {
            "candidates_checked": checked}
