import importlib
import json
import random
from fractions import Fraction

import pytest

from conftest import DATA, SCENARIOS, read_lp
from test_golden import GOLDEN, RELATIONS, _args

from rankrefine import engine
from rankrefine.annotate import prepared
from rankrefine.cli import EXIT_INVALID, main
from rankrefine.constraints import (
    CardinalityConstraint,
    ConstraintSet,
    deviation,
    parse_constraints,
)
from rankrefine.data import Database, Relation, Schema, Tuple, load_csv
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
from rankrefine.milp import BuildOptions, Solution, build_model, solve
from rankrefine.errors import InternalConsistencyError, PreconditionError, RankRefineError
from rankrefine.query import (
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
    parse_query,
    render_sql,
)


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
    result = run(_config(students_db, scholarship_query, scholarship_constraints,
                         engine="milp", lp_dump=str(dump)))
    h = read_lp(dump)
    assert (h.getNumCol(), h.getNumRow()) == (result.model_stats["variables"],
                                              result.model_stats["rows"])


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


@pytest.fixture
def prepare_calls(monkeypatch):
    """Calls that prepare an instance, counted in every module that can
    make one; reset it with ``.update``."""
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
    return calls


ONE_PREPARATION = {"natural_join": 1, "joined_relation": 1, "annotate": 1}
NO_PREPARATION = {"natural_join": 0, "joined_relation": 0, "annotate": 0}


def _students_db() -> Database:
    """A freshly loaded scholarship database, with no prepared instance."""
    db = Database()
    db.add(load_csv(DATA / "students.csv", name="Students"))
    db.add(load_csv(DATA / "activities.csv", name="Activities"))
    return db


def _report(result):
    return result_to_dict(result, include_timing=False)


@pytest.mark.parametrize("engine_name", ["milp+opt", "naive+prov"])
def test_one_join_and_one_annotate_pass_per_run(prepare_calls, scholarship_query,
                                                scholarship_constraints,
                                                engine_name):
    db = _students_db()
    result = run(_config(db, scholarship_query, scholarship_constraints,
                         engine=engine_name))
    assert result.status == REFINED
    # Students NATURAL JOIN Activities is one natural_join
    assert prepare_calls == ONE_PREPARATION

    # later requests on the same query and relations reuse the instance
    prepare_calls.update(NO_PREPARATION)
    lower_only = ConstraintSet(scholarship_constraints.constraints[:1])
    for other_engine in ("milp+opt", "naive+prov"):
        for cs, eps in ((lower_only, Fraction(0)), (scholarship_constraints, Fraction(1, 2))):
            warm = run(_config(db, scholarship_query, cs, engine=other_engine, epsilon=eps))
            assert prepare_calls == NO_PREPARATION
            cold = run(_config(_students_db(), scholarship_query, cs,
                               engine=other_engine, epsilon=eps))
            prepare_calls.update(NO_PREPARATION)
            assert _report(warm) == _report(cold)
    warm = run(_config(db, scholarship_query, scholarship_constraints,
                       engine=engine_name))
    assert prepare_calls == NO_PREPARATION
    assert _report(warm) == _report(result)


def _everyone_female_low_income(db: Database) -> Relation:
    students = db.get("Students")
    return Relation("Students", students.schema, tuple(
        Tuple(t.tid, {**t.values, "Gender": "F", "Income": "Low"}) for t in students.rows))


def test_added_relation_is_prepared_again(prepare_calls, scholarship_query,
                                          scholarship_constraints):
    db = _students_db()
    before = run(_config(db, scholarship_query, scholarship_constraints))
    assert before.distance == Fraction(1, 2)
    db.add(_everyone_female_low_income(db))
    prepare_calls.update(NO_PREPARATION)
    after = run(_config(db, scholarship_query, scholarship_constraints))
    assert prepare_calls == ONE_PREPARATION
    # the original query now meets every constraint
    assert after.status == REFINED and after.distance == 0
    assert "Activity = 'RB' ORDER BY" in after.refined_sql


def test_direct_relation_write_is_not_served_stale(prepare_calls, scholarship_query,
                                                   scholarship_constraints):
    db = _students_db()
    run(_config(db, scholarship_query, scholarship_constraints))
    db.relations["Students"] = _everyone_female_low_income(db)
    prepare_calls.update(NO_PREPARATION)
    after = run(_config(db, scholarship_query, scholarship_constraints))
    assert prepare_calls == ONE_PREPARATION
    assert after.distance == 0


def test_other_query_is_prepared_again(prepare_calls, scholarship_query,
                                       scholarship_constraints):
    db = _students_db()
    other = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                        "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    for q in (scholarship_query, other, scholarship_query):
        prepare_calls.update(NO_PREPARATION)
        result = run(_config(db, q, scholarship_constraints))
        assert prepare_calls == ONE_PREPARATION
        assert _report(result) == _report(run(_config(_students_db(), q,
                                                      scholarship_constraints)))
    # an equal query, parsed anew, is the same query
    prepare_calls.update(NO_PREPARATION)
    run(_config(db, parse_query((SCENARIOS / "scholarship" / "query.sql").read_text()),
                scholarship_constraints))
    assert prepare_calls == NO_PREPARATION


def test_shared_instance_is_read_only(scholarship_query, scholarship_constraints):
    db = _students_db()
    instance = prepared(scholarship_query, db)
    with pytest.raises(TypeError):
        instance.tuples_by_id[1] = instance.tuples_by_id[2]
    with pytest.raises(AttributeError):
        instance.original_ranking.append(1)
    assert prepared(scholarship_query, db) is instance


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_warm_reports_equal_cold_reports(case):
    scenario, distance, epsilon = case
    db = Database()
    for name, csv in RELATIONS[scenario].items():
        db.add(load_csv(DATA / csv, name=name))
    q = parse_query((SCENARIOS / scenario / "query.sql").read_text())
    cs = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())
    config = _config(db, q, cs, epsilon=Fraction(epsilon),
                     kind=DistanceKind(distance, cs.k_star))

    def outcome():
        try:
            return _report(run(config))
        except RankRefineError as exc:
            return type(exc).__name__, str(exc)

    cold = outcome()
    assert db.last_prepared is not None
    assert outcome() == cold


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


def _original_deviation(db, q, cs):
    instance = prepared(q, db)
    return deviation(instance.original_ranking, instance.tuples_by_id, cs)


def _no_solve(model, options):
    raise AssertionError("HiGHS ran although the original query meets the constraints")


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(JACCARD, 6),
                                  DistanceKind(KENDALL, 6)], ids=lambda k: k.name)
def test_original_query_within_epsilon_is_answered_without_solving(
        monkeypatch, students_db, scholarship_query, scholarship_constraints,
        engine_name, kind):
    eps = _original_deviation(students_db, scholarship_query, scholarship_constraints)
    assert 0 < eps < 1
    monkeypatch.setattr(engine, "solve", _no_solve)
    result = run(_config(students_db, scholarship_query, scholarship_constraints,
                         engine=engine_name, kind=kind, epsilon=eps))
    assert result.status == REFINED
    assert result.refinement == Refinement.unchanged(scholarship_query)
    assert result.refined_sql == render_sql(scholarship_query)
    assert result.distance == 0 and result.deviation == eps
    opt = engine_name == "milp+opt"
    built = build_model(scholarship_query, students_db, scholarship_constraints, eps, kind,
                        BuildOptions(relevancy_prune=opt, merge_lineage=opt,
                                     relax_single_sense=opt))
    stats = result_to_dict(result)["model_stats"]
    assert (stats["variables"], stats["rows"]) == (built.stats["variables"],
                                                   built.stats["rows"])
    assert (stats["nodes"], stats["mip_gap"], stats["dual_bound"]) == (0, 0.0, 0.0)
    assert result.timing_ms["solve_ms"] == 0


def test_original_query_just_outside_epsilon_is_solved(monkeypatch, students_db,
                                                       scholarship_query,
                                                       scholarship_constraints):
    eps = _original_deviation(students_db, scholarship_query,
                              scholarship_constraints) - Fraction(1, 1000)
    calls = []

    def counted(model, options):
        calls.append(model)
        return solve(model, options)

    monkeypatch.setattr(engine, "solve", counted)
    result = run(_config(students_db, scholarship_query, scholarship_constraints,
                         epsilon=eps))
    assert len(calls) == 1
    assert result.status == REFINED and result.distance > 0


def test_lp_dump_written_when_the_original_query_settles(monkeypatch, tmp_path, students_db,
                                                         scholarship_query,
                                                         scholarship_constraints):
    monkeypatch.setattr(engine, "solve", _no_solve)
    dump = tmp_path / "model.lp"
    result = run(_config(students_db, scholarship_query, scholarship_constraints,
                         epsilon=Fraction(1), lp_dump=str(dump)))
    assert result.distance == 0
    h = read_lp(dump)
    assert (h.getNumCol(), h.getNumRow()) == (result.model_stats["variables"],
                                              result.model_stats["rows"])


def test_non_positive_pred_constant_is_rejected_at_any_epsilon(tmp_path, capsys, students_db,
                                                               scholarship_constraints):
    text = ("SELECT DISTINCT ID, Gender, Income FROM Students NATURAL JOIN Activities "
            "WHERE GPA >= 0 AND Activity = 'RB' ORDER BY SAT DESC")
    q = parse_query(text)
    assert len(prepared(q, students_db).original_ranking) >= scholarship_constraints.k_star
    with pytest.raises(PreconditionError, match="positive original constant"):
        run(_config(students_db, q, scholarship_constraints, epsilon=Fraction(1)))
    query_file = tmp_path / "query.sql"
    query_file.write_text(text)
    args = _args("scholarship", PRED, "1")
    args[args.index("--query") + 1] = str(query_file)
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", [JACCARD, KENDALL])
def test_short_original_ranking_is_rejected_at_any_epsilon(capsys, no_perfect_db,
                                                           no_perfect_query,
                                                           no_perfect_constraints, kind):
    with pytest.raises(PreconditionError, match="at least k"):
        run(_config(no_perfect_db, no_perfect_query, no_perfect_constraints,
                    epsilon=Fraction(1), kind=DistanceKind(kind, 3)))
    assert main(_args("no_perfect", kind, "1")) == EXIT_INVALID
    assert capsys.readouterr().out == ""


def test_refinement_with_fewer_than_k_star_tuples_fails_verification(
        students_db, scholarship_query, scholarship_constraints):
    config = _config(students_db, scholarship_query, scholarship_constraints,
                     epsilon=Fraction(1))
    instance = prepared(scholarship_query, students_db)
    too_tight = Refinement(numeric_constants={("GPA", ">="): Fraction(4)})
    assert 0 < len(engine.filter_annotated(
        instance, apply_refinement(scholarship_query, too_tight), instance.key_attrs)) \
        < scholarship_constraints.k_star
    with pytest.raises(InternalConsistencyError, match="fewer than k"):
        engine._verified_result(config, instance, too_tight, REFINED, {}, {})
