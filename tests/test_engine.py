import json
from fractions import Fraction

import pytest

from rankrefine import engine
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.engine import (
    ENGINES,
    NO_REFINEMENT,
    REFINED,
    TIMEOUT,
    RefineResult,
    RunConfig,
    result_to_dict,
    run,
)
from rankrefine.milp import Solution, solve
from rankrefine.errors import PreconditionError


def _config(db, q, cs, **kw):
    kw.setdefault("epsilon", Fraction(0))
    kw.setdefault("kind", DistanceKind(PRED))
    return RunConfig(query=q, db=db, constraints=cs, **kw)


@pytest.mark.parametrize("engine", ENGINES)
def test_all_engines_agree_on_running_example(students_db, scholarship_query,
                                              scholarship_constraints, engine):
    result = run(_config(students_db, scholarship_query,
                         scholarship_constraints, engine=engine))
    assert result.status == REFINED
    assert result.distance == Fraction(1, 2)
    assert result.deviation == 0
    assert result.refinement.cat_values["Activity"] == frozenset({"RB", "SO"})
    assert "GPA >= 3.7" in result.refined_sql
    assert [row["position"] for row in result.topk] == [1, 2, 3, 4, 5, 6]
    assert result.timing_ms["total_ms"] >= 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind, want", [
    (DistanceKind(JACCARD, 6), Fraction(2, 7)),
    (DistanceKind(KENDALL, 6), 5),
])
def test_outcome_distances_agree(students_db, scholarship_query,
                                 scholarship_constraints, engine, kind, want):
    result = run(_config(students_db, scholarship_query,
                         scholarship_constraints, engine=engine, kind=kind))
    assert result.status == REFINED
    assert result.distance == want
    assert result.deviation <= Fraction(0)


@pytest.mark.parametrize("engine", ENGINES)
def test_no_refinement_status(no_perfect_db, no_perfect_query,
                              no_perfect_constraints, engine):
    result = run(_config(no_perfect_db, no_perfect_query,
                         no_perfect_constraints, engine=engine))
    assert result.status == NO_REFINEMENT
    assert result.refinement is None
    assert result.distance is None


def test_unknown_engine_rejected(students_db, scholarship_query,
                                 scholarship_constraints):
    with pytest.raises(PreconditionError):
        _config(students_db, scholarship_query, scholarship_constraints,
                engine="quantum")


def test_topk_group_labels(students_db, scholarship_query,
                           scholarship_constraints):
    result = run(_config(students_db, scholarship_query,
                         scholarship_constraints, engine="milp"))
    labelled = [row for row in result.topk if row["groups"]]
    assert labelled, "constraint groups should appear in the top-k listing"
    for row in result.topk:
        for label in row["groups"]:
            assert label.startswith(("lb[", "ub["))


def test_lp_dump_written(tmp_path, students_db, scholarship_query,
                         scholarship_constraints):
    dump = tmp_path / "model.lp"
    run(_config(students_db, scholarship_query, scholarship_constraints,
                engine="milp", lp_dump=str(dump)))
    text = dump.read_text()
    assert text.startswith("Minimize")
    assert "Binaries" in text


def test_result_to_dict_deterministic(students_db, scholarship_query,
                                      scholarship_constraints):
    blobs = []
    for _ in range(2):
        result = run(_config(students_db, scholarship_query,
                             scholarship_constraints, engine="milp"))
        blobs.append(json.dumps(result_to_dict(result, include_timing=False),
                                sort_keys=True))
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["status"] == "refined"
    assert payload["distance"] == "0.5"
    assert payload["refinement"]["categorical"]["Activity"] == ["RB", "SO"]
    assert payload["refinement"]["numeric"]["GPA >="] == "3.7"


def test_result_to_dict_includes_rounded_timing():
    result = RefineResult(status=REFINED, timing_ms={"total_ms": 1.23456})
    out = result_to_dict(result)
    assert out["timing_ms"]["total_ms"] == 1.235


def test_milp_opt_flags_can_be_disabled(students_db, scholarship_query,
                                        scholarship_constraints):
    base = run(_config(students_db, scholarship_query, scholarship_constraints,
                       engine="milp+opt"))
    bare = run(_config(students_db, scholarship_query, scholarship_constraints,
                       engine="milp+opt", prune=False, merge=False, relax=False))
    assert base.status == bare.status == REFINED
    assert base.distance == bare.distance


def test_epsilon_relaxation_never_increases_distance(students_db,
                                                     scholarship_query,
                                                     scholarship_constraints):
    dists = []
    for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        result = run(_config(students_db, scholarship_query,
                             scholarship_constraints, engine="milp",
                             epsilon=eps))
        assert result.status == REFINED
        dists.append(result.distance)
    assert dists == sorted(dists, reverse=True)


def test_timeout_with_incumbent_is_verified(monkeypatch, students_db,
                                            scholarship_query,
                                            scholarship_constraints):
    # a limit that stops HiGHS after it found an incumbent: the incumbent is
    # extracted and re-checked, and the status stays "timeout"
    def stopped_early(model, options):
        found = solve(model, options)
        return Solution(status="timeout", assignment=found.assignment,
                        objective_value=found.objective_value, stats=found.stats)

    monkeypatch.setattr(engine, "solve", stopped_early)
    result = run(_config(students_db, scholarship_query, scholarship_constraints))
    assert result.status == TIMEOUT
    assert result.distance == Fraction(1, 2)
    assert result.deviation == 0
    assert "GPA >= 3.7" in result.refined_sql


def test_solver_stats_in_model_stats(students_db, scholarship_query,
                                     scholarship_constraints):
    result = run(_config(students_db, scholarship_query, scholarship_constraints))
    stats = result_to_dict(result)["model_stats"]
    assert {"nodes", "mip_gap", "dual_bound"} <= set(stats)
    assert stats["mip_gap"] == 0.0
    assert "lp_iterations" not in stats and "wall_s" not in stats
