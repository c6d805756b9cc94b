import importlib
import json
import random
from fractions import Fraction

import pytest

from rankrefine import engine
from rankrefine.constraints import CardinalityConstraint, ConstraintSet
from rankrefine.data import Database, Relation, Schema, Tuple
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
from rankrefine.query import NumPredicate, Query, parse_query


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


@pytest.mark.parametrize("engine_name", ["milp+opt", "naive+prov"])
def test_one_join_and_one_annotate_pass_per_run(monkeypatch, students_db,
                                                scholarship_query,
                                                scholarship_constraints,
                                                engine_name):
    # the package re-exports the function `annotate` under the module's name
    annotate = importlib.import_module("rankrefine.annotate")
    build = importlib.import_module("rankrefine.milp.build")
    oracle = importlib.import_module("rankrefine.oracle")
    calls = {"natural_join": 0, "joined_relation": 0, "annotate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (engine, build, oracle, annotate):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    result = run(_config(students_db, scholarship_query, scholarship_constraints,
                         engine=engine_name))
    assert result.status == REFINED
    # Students NATURAL JOIN Activities is one natural_join
    assert calls == {"natural_join": 1, "joined_relation": 1, "annotate": 1}


TOL = 1e-6  # as in the acceptance suite


def _assert_engines_agree(db, q, cs):
    milp = run(_config(db, q, cs, engine="milp+opt"))
    oracle = run(_config(db, q, cs, engine="naive+prov"))
    assert milp.status == oracle.status
    if oracle.status == REFINED:
        assert abs(float(milp.distance - oracle.distance)) <= TOL
    return milp, oracle


@pytest.mark.parametrize("pred", ["GPA >= 2.5", "GPA >= 1", "GPA <= 9"])
def test_original_constant_far_outside_the_domain(students_db,
                                                  scholarship_constraints, pred):
    # the refined constant may stay at the original one however far it lies
    # from the joined GPA values (3.5 to 4.0)
    q = parse_query("SELECT DISTINCT ID, Gender, Income FROM Students NATURAL JOIN "
                    f"Activities WHERE {pred} AND Activity = 'RB' ORDER BY SAT DESC")
    milp, oracle = _assert_engines_agree(students_db, q, scholarship_constraints)
    assert oracle.distance == milp.distance == Fraction(1, 2)
    assert pred in milp.refined_sql


def _large_magnitude_instance(seed: int, base: Fraction, gap: Fraction):
    """40 rows whose predicate values are base + gap * i, one predicate with
    each of the five operators in turn, one lower-bound constraint."""
    rng = random.Random(seed)
    rows = tuple(Tuple(tid, {"g": rng.choice("ab"), "x": base + gap * rng.randrange(40),
                             "score": Fraction(rng.randrange(100))})
                 for tid in range(1, 41))
    schema = Schema.from_pairs([("g", "categorical"), ("x", "numerical"),
                                ("score", "numerical")])
    db = Database()
    db.add(Relation("T", schema, rows))
    op = ("<", "<=", "=", ">", ">=")[seed % 5]
    pred = NumPredicate("x", op, base + gap * rng.randrange(40))
    q = Query(("T",), ("*",), False, (pred,), (), ("score", "DESC"))
    k = rng.randint(3, 6)
    cs = ConstraintSet((CardinalityConstraint((("g", "a"),), k, rng.randint(1, k),
                                              "lower"),))
    return db, q, cs


@pytest.mark.parametrize("base, gap", [
    (Fraction(10**12), Fraction(1, 10)),
    (Fraction(10**6), Fraction(1, 1000)),
])
def test_large_magnitudes_match_the_oracle(base, gap):
    # no row of the model carries a data value, so neither magnitude nor
    # gap size can make a feasible refinement look infeasible
    refined = 0
    for seed in range(20):
        _, oracle = _assert_engines_agree(*_large_magnitude_instance(seed, base, gap))
        refined += oracle.status == REFINED
    assert refined > 0
