import importlib
import json
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import DATA, SCENARIOS, read_lp, relation, rows_of
from test_golden import GOLDEN, RELATIONS, _args

from rankrefine import engine
from rankrefine.annotate import preparation
from rankrefine.cli import EXIT_INVALID, main
from rankrefine.constraints import (
    CardinalityConstraint,
    ConstraintSet,
    deviation,
    parse_constraints,
)
from rankrefine.data import Database, Relation, Schema, load_csv
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.engine import (
    BUILD_OPTIONS,
    ENGINES,
    NO_REFINEMENT,
    REFINED,
    TIMEOUT,
    RefineResult,
    RunConfig,
    result_to_dict,
    run,
)
from rankrefine.milp import Solution, build_model, solve
from rankrefine.errors import (
    ConstraintValidationError,
    InternalConsistencyError,
    KindMismatchError,
    PreconditionError,
    RankRefineError,
)
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
    assert [row.position for row in result.topk] == [1, 2, 3, 4, 5, 6]
    assert result.timing_ms["total_ms"] >= 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind, want", [
    (DistanceKind(JACCARD), Fraction(2, 7)),
    (DistanceKind(KENDALL), 5),
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


def _empty_join_db():
    """Students and Activities that share no ``ID``, so their join is empty."""
    db = Database()
    db.add(relation("Students", Schema.from_pairs(
        [("ID", "numerical"), ("Gender", "categorical"), ("GPA", "numerical"),
         ("SAT", "numerical")]),
        [{"ID": 1, "Gender": "F", "GPA": Fraction("3.5"), "SAT": 1400},
         {"ID": 2, "Gender": "M", "GPA": Fraction("3.9"), "SAT": 1500}]))
    db.add(relation("Activities", Schema.from_pairs(
        [("ID", "numerical"), ("Activity", "categorical")]),
        [{"ID": 3, "Activity": "RB"}]))
    return db


@pytest.mark.parametrize("engine", ENGINES)
def test_an_empty_join_has_no_refinement_under_every_engine(engine):
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                    "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 1, 1, "lower"),))
    db = _empty_join_db()
    result = run(_config(db, q, cs, engine=engine))
    assert (result.status, result.refinement, result.distance) == (NO_REFINEMENT, None, None)
    with pytest.raises(PreconditionError, match="at least k[*]=1 tuples, got 0"):
        run(_config(db, q, cs, engine=engine, kind=DistanceKind(JACCARD)))
    # a predicate of the wrong kind is invalid although no row is read
    for where, message in (("GPA = 'a'", "categorical predicate on 'GPA' applied to a number"),
                           ("Activity >= 1", "attribute 'Activity' is not numeric")):
        wrong = parse_query(f"SELECT * FROM Students NATURAL JOIN Activities "
                            f"WHERE {where} ORDER BY SAT DESC")
        with pytest.raises(KindMismatchError, match=f"^{message}$"):
            run(_config(db, wrong, cs, engine=engine))


def test_unknown_engine_rejected(students_db, scholarship_query,
                                 scholarship_constraints):
    with pytest.raises(PreconditionError):
        _config(students_db, scholarship_query, scholarship_constraints,
                engine="quantum")


@pytest.mark.parametrize("timeout_s", [-1, -0.5, float("nan")])
def test_a_negative_or_nan_timeout_is_rejected(students_db, scholarship_query,
                                               scholarship_constraints, timeout_s):
    with pytest.raises(PreconditionError, match="timeout_s"):
        _config(students_db, scholarship_query, scholarship_constraints, timeout_s=timeout_s)


def _astronauts_config(group: dict, sense: str, engine_name: str) -> RunConfig:
    db = Database()
    db.add(load_csv(DATA / "astronauts.csv", name="Astronauts"))
    q = parse_query((SCENARIOS / "astronauts" / "query.sql").read_text())
    cs = parse_constraints(json.dumps([{"group": group, "k": 5, "sense": sense, "n": 2}]))
    return _config(db, q, cs, engine=engine_name)


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt", "naive+prov"])
@pytest.mark.parametrize("value", [3, 3.0, "3"])
def test_numeric_constraint_group_compares_exact_numbers(engine_name, value):
    # the original top 5 holds two astronauts with three space flights, so
    # the original query is the answer
    result = run(_astronauts_config({"Space_Flights": value}, "lower", engine_name))
    assert (result.status, result.distance, result.deviation) == (REFINED, 0, 0)
    label = "lb[Space_Flights=3,k=5]=2"
    assert sum(label in row.groups for row in result.topk[:5]) == 2


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt", "naive+prov"])
@pytest.mark.parametrize("group, message", [
    ({"Gendr": "F"}, "'Gendr' not in the query's joined schema"),
    ({"Space_Flights": "three"}, "'three' of numerical attribute 'Space_Flights'"),
])
def test_constraint_group_must_fit_the_joined_schema(engine_name, group, message):
    with pytest.raises(ConstraintValidationError, match=message):
        run(_astronauts_config(group, "upper", engine_name))


def test_topk_group_labels(students_db, scholarship_query,
                           scholarship_constraints):
    result = run(_config(students_db, scholarship_query,
                         scholarship_constraints, engine="milp"))
    labelled = [row for row in result.topk if row.groups]
    assert labelled, "constraint groups should appear in the top-k listing"
    for row in result.topk:
        for label in row.groups:
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
        return Solution(status="timeout", values=found.values,
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
    assert {"nodes", "lp_iterations", "mip_gap", "dual_bound"} <= set(stats)
    # the optimum within HiGHS's absolute gap: here 0.5 against a dual bound
    # that float arithmetic leaves 1e-15 below it
    assert 0 <= stats["mip_gap"] < 1e-12
    assert stats["dual_bound"] <= float(result.distance)
    assert "wall_s" not in stats


# (the jaccard model of this request is solved without a simplex iteration)
@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(KENDALL)],
                         ids=lambda k: k.name)
def test_lp_iterations_are_reported_and_repeat(scholarship_query, scholarship_constraints,
                                               engine_name, kind):
    counts = []
    for _ in range(2):
        db = _students_db()  # a fresh build and solve each time
        result = run(_config(db, scholarship_query, scholarship_constraints,
                             engine=engine_name, kind=kind))
        assert result.status == REFINED and result.distance > 0
        counts.append(result.model_stats["lp_iterations"])
    assert counts[0] == counts[1] > 0


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
    return relation("Students", students.schema, (
        {**row, "Gender": "F", "Income": "Low"} for row in rows_of(students)))


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
    instance = preparation(scholarship_query, db)
    with pytest.raises(TypeError):
        instance.tuples_by_id[1] = instance.tuples_by_id[2]
    with pytest.raises(AttributeError):
        instance.original_ranking.append(1)
    assert preparation(scholarship_query, db) is instance


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="/".join)
def test_warm_reports_equal_cold_reports(case):
    scenario, distance, epsilon = case
    db = Database()
    for name, csv in RELATIONS[scenario].items():
        db.add(load_csv(DATA / csv, name=name))
    q = parse_query((SCENARIOS / scenario / "query.sql").read_text())
    cs = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())
    config = _config(db, q, cs, epsilon=Fraction(epsilon),
                     kind=DistanceKind(distance))

    def outcome():
        try:
            return _report(run(config))
        except RankRefineError as exc:
            return type(exc).__name__, str(exc)

    cold = outcome()
    assert db.last_prepared is not None
    assert outcome() == cold


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
def test_an_edited_report_leaves_later_ones_alone(scholarship_query, scholarship_constraints,
                                                  engine_name):
    """The database keeps the model a request is served from, so each result
    holds model stats of its own: editing them changes no later report."""
    db = _students_db()
    settled = _original_deviation(db, scholarship_query, scholarship_constraints)
    for eps in (Fraction(0), settled):  # solved, then settled by the original query
        config = _config(db, scholarship_query, scholarship_constraints,
                         engine=engine_name, epsilon=eps)
        first = run(config)
        want = json.dumps(_report(first), sort_keys=True)
        first.model_stats["rows_by_family"]["position"] += 1
        first.model_stats["rows"] += 1
        assert json.dumps(_report(run(config)), sort_keys=True) == want, eps
    # one model kept per epsilon
    assert len(db.last_prepared.models) == 2


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
def test_equal_answers_from_one_kept_model_share_their_parts(
        scholarship_query, scholarship_constraints, engine_name):
    """A caller may keep every result, so two equal answers served from one
    kept model share their refinement, refined SQL and top-k rows; the
    top-k list and the model stats stay each result's own."""
    db = _students_db()
    settled = _original_deviation(db, scholarship_query, scholarship_constraints)
    for eps in (Fraction(0), settled):  # solved, then settled by the original query
        config = _config(db, scholarship_query, scholarship_constraints,
                         engine=engine_name, epsilon=eps)
        first, second = run(config), run(config)
        assert first.status == REFINED and _report(first) == _report(second)
        assert first.refinement is second.refinement
        assert first.refined_sql is second.refined_sql
        assert first.topk is not second.topk
        assert all(map(operator.is_, first.topk, second.topk))
        assert first.model_stats is not second.model_stats
        assert first.model_stats["rows_by_family"] is not second.model_stats["rows_by_family"]
        assert not hasattr(first, "__dict__") and not hasattr(first.refinement, "__dict__")
    # one model kept per epsilon
    assert len(db.last_prepared.models) == 2


# name -> (scenario, query text or None for the scenario's, distance,
# epsilon, error message)
PRECONDITION_CASES = {
    "negative-epsilon": ("astronauts", None, PRED, "-0.5", "epsilon must be non-negative"),
    "non-positive-pred-constant": (
        "astronauts", "SELECT * FROM Astronauts WHERE Space_Flights >= 0 AND "
        "Status = 'Active' ORDER BY Flight_Hours DESC", PRED, "0.5",
        "predicate distance needs a positive original constant on 'Space_Flights' >="),
    "outcome-distance-over-too-few-tuples": (
        "no_perfect", None, JACCARD, "0.5",
        "outcome distances need the original query to return at least k*=3 tuples, got 2"),
}


@pytest.mark.parametrize("name", sorted(PRECONDITION_CASES))
def test_precondition_errors_fire_on_every_request(name, tmp_path, capsys):
    """Each rule gives one message under every engine."""
    scenario, query_text, distance, epsilon, message = PRECONDITION_CASES[name]
    query_file = SCENARIOS / scenario / "query.sql"
    if query_text is not None:
        query_file = tmp_path / "query.sql"
        query_file.write_text(query_text)
    args = _args(scenario, distance, epsilon)
    args[args.index("--query") + 1] = str(query_file)
    for engine_name in ENGINES:
        for _ in range(2):
            assert main(args + ["--engine", engine_name]) == EXIT_INVALID, engine_name
            assert capsys.readouterr() == ("", f"error: {message}\n")

    for engine_name in ENGINES:
        db = Database()
        for rel, csv in RELATIONS[scenario].items():
            db.add(load_csv(DATA / csv, name=rel))
        cs = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())
        config = _config(db, parse_query(query_file.read_text()), cs, engine=engine_name,
                         epsilon=Fraction(epsilon), kind=DistanceKind(distance))
        if epsilon.startswith("-"):
            # a MILP engine's database keeps the model of these constraints at epsilon 0
            assert run(replace(config, epsilon=Fraction(0))).status == REFINED
        kept = dict(db.last_prepared.models) if db.last_prepared else {}
        for _ in range(2):
            with pytest.raises(PreconditionError) as exc:
                run(config)
            assert str(exc.value) == message
            # a failed build keeps nothing
            assert db.last_prepared.models == kept


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
    rows = [{"g": rng.choice("ab"), "x": base + gap * rng.randrange(40),
             "score": Fraction(rng.randrange(100))} for _ in range(40)]
    schema = Schema.from_pairs([("g", "categorical"), ("x", "numerical"),
                                ("score", "numerical")])
    db = Database()
    db.add(relation("T", schema, rows))
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
    instance = preparation(q, db)
    return deviation(instance.original_ranking, instance.tuples_by_id, cs)


def _no_solve(model, options):
    raise AssertionError("HiGHS ran although the original query meets the constraints")


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(JACCARD),
                                  DistanceKind(KENDALL)], ids=lambda k: k.name)
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
    built = build_model(scholarship_query, students_db, scholarship_constraints, eps, kind,
                        BUILD_OPTIONS[engine_name])
    stats = result_to_dict(result)["model_stats"]
    assert (stats["variables"], stats["rows"]) == (built.stats["variables"],
                                                   built.stats["rows"])
    assert (stats["nodes"], stats["lp_iterations"], stats["mip_gap"],
            stats["dual_bound"]) == (0, 0, 0.0, 0.0)
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


@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(JACCARD),
                                  DistanceKind(KENDALL)], ids=lambda k: k.name)
def test_a_settled_request_filters_nothing(monkeypatch, students_db, scholarship_query,
                                           scholarship_constraints, kind):
    """A settled request is verified on the original ranking the instance
    holds, and reports what filtering the instance again reports; a solved
    one filters once, for its refinement."""
    eps = _original_deviation(students_db, scholarship_query, scholarship_constraints)
    filter_annotated = engine.filter_annotated
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return filter_annotated(*args, **kwargs)

    monkeypatch.setattr(engine, "filter_annotated", counted)
    settled = _config(students_db, scholarship_query, scholarship_constraints,
                      kind=kind, epsilon=eps)
    result = run(settled)
    assert len(calls) == 0 and result.distance == 0
    instance = preparation(scholarship_query, students_db)
    settled.constraints = settled.constraints.over(instance.schema)
    filtered = engine._verified_result(settled, instance,
                                       Refinement.unchanged(scholarship_query),
                                       REFINED, {}, {})
    assert len(calls) == 1
    assert {**_report(result), "model_stats": {}} == _report(filtered)

    calls.clear()
    solved = run(_config(students_db, scholarship_query, scholarship_constraints,
                         kind=kind, epsilon=eps - Fraction(1, 1000)))
    assert len(calls) == 1
    assert solved.status == REFINED and solved.distance > 0


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
def test_a_settled_request_reports_the_sql_the_instance_holds(monkeypatch, students_db,
                                                              scholarship_query,
                                                              scholarship_constraints,
                                                              engine_name):
    """The original query is its own refinement, so a settled request neither
    applies nor renders one; a solved request does each once."""
    eps = _original_deviation(students_db, scholarship_query, scholarship_constraints)
    calls = []

    def counted(name):
        real = getattr(engine, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    preparation(scholarship_query, students_db)  # the instance renders its query once
    for name in ("apply_refinement", "render_sql"):
        monkeypatch.setattr(engine, name, counted(name))
    settled = run(_config(students_db, scholarship_query, scholarship_constraints,
                          engine=engine_name, epsilon=eps))
    assert settled.distance == 0 and calls == []
    assert settled.refined_sql == render_sql(scholarship_query)
    solved = run(_config(students_db, scholarship_query, scholarship_constraints,
                         engine=engine_name, epsilon=eps - Fraction(1, 1000)))
    assert solved.distance > 0 and calls == ["apply_refinement", "render_sql"]
    assert solved.refined_sql == render_sql(apply_refinement(scholarship_query,
                                                             solved.refinement))


def _count_calls(monkeypatch, modules) -> dict:
    """Counts of the ``preparation`` and ``check_request`` calls that
    ``modules`` make, from now on."""
    calls = {"preparation": 0, "check_request": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
def test_one_preparation_and_one_request_check_per_request(monkeypatch, scholarship_query,
                                                          scholarship_constraints,
                                                          engine_name):
    """``run`` hands its instance to the model lookup: a request that builds
    its model and one served the kept model each prepare (or look up) the
    instance once and check the request once."""
    calls = _count_calls(monkeypatch, (engine, importlib.import_module("rankrefine.milp.build")))
    db = _students_db()
    eps = _original_deviation(db, scholarship_query, scholarship_constraints)
    for epsilon, builds in ((eps, True), (eps, False), (Fraction(0), True), (Fraction(0), False)):
        kept = len(db.last_prepared.models)
        result = run(_config(db, scholarship_query, scholarship_constraints,
                             engine=engine_name, epsilon=epsilon))
        assert result.status == REFINED
        assert len(db.last_prepared.models) == kept + builds
        assert calls == {"preparation": 1, "check_request": 1}, (epsilon, builds)
        calls.update(preparation=0, check_request=0)


@pytest.mark.parametrize("engine_name", ["naive", "naive+prov"])
def test_one_preparation_and_one_request_check_per_exhaustive_request(
        monkeypatch, scholarship_query, scholarship_constraints, engine_name):
    """``run`` hands its instance to the exhaustive search, which builds its
    space from it: a request prepares (or looks up) the instance once and
    checks the request once, whether the original query settles it or not."""
    calls = _count_calls(monkeypatch, (engine, importlib.import_module("rankrefine.oracle")))
    db = _students_db()
    eps = _original_deviation(db, scholarship_query, scholarship_constraints)
    for epsilon in (eps, Fraction(0), Fraction(0)):
        result = run(_config(db, scholarship_query, scholarship_constraints,
                             engine=engine_name, epsilon=epsilon))
        assert result.status == REFINED
        assert result.model_stats == {"candidates_checked": 186}
        assert calls == {"preparation": 1, "check_request": 1}, epsilon
        calls.update(preparation=0, check_request=0)


@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(JACCARD),
                                  DistanceKind(KENDALL)], ids=lambda k: k.name)
def test_deviation_runs_once_per_ranking(monkeypatch, students_db, scholarship_query,
                                         scholarship_constraints, kind):
    """A settled request computes the original ranking's deviation once, for
    the settled check, and the verifier reuses it; a solved one computes it
    for the original ranking and for the refined one."""
    eps = _original_deviation(students_db, scholarship_query, scholarship_constraints)
    real = engine.deviation
    rankings = []

    def counted(ranking, *args):
        rankings.append(tuple(ranking[:scholarship_constraints.k_star]))
        return real(ranking, *args)

    monkeypatch.setattr(engine, "deviation", counted)
    settled = run(_config(students_db, scholarship_query, scholarship_constraints,
                          kind=kind, epsilon=eps))
    assert settled.distance == 0 and settled.deviation == eps
    assert len(rankings) == 1

    rankings.clear()
    solved = run(_config(students_db, scholarship_query, scholarship_constraints,
                         kind=kind, epsilon=eps - Fraction(1, 1000)))
    assert solved.status == REFINED and solved.distance > 0
    assert len(rankings) == len(set(rankings)) == 2
    assert rankings[1] == tuple(row.tid for row in solved.topk)


@pytest.mark.parametrize("engine_name", ["milp", "milp+opt"])
@pytest.mark.parametrize("kind", [DistanceKind(PRED), DistanceKind(JACCARD),
                                  DistanceKind(KENDALL)], ids=lambda k: k.name)
def test_one_membership_pass_per_ranking(monkeypatch, students_db, scholarship_query,
                                         scholarship_constraints, engine_name, kind):
    """Each ranking a request checks tests each (top-k* tuple, constraint)
    pair once, for its deviation and its group listing alike: k*·|C|
    ``contains`` calls when the original query settles the request, and
    2·k*·|C| when the solver runs.  Each request runs once uncounted first,
    so the counted one is served the kept model and builds nothing."""
    cs = scholarship_constraints
    pairs = cs.k_star * len(cs)
    eps = _original_deviation(students_db, scholarship_query, cs)
    real = CardinalityConstraint.contains
    calls = []

    def counted(self, row):
        calls.append((self, row.tid))
        return real(self, row)

    for epsilon, rankings in ((eps, 1), (eps - Fraction(1, 1000), 2)):
        config = _config(students_db, scholarship_query, cs, engine=engine_name, kind=kind,
                         epsilon=epsilon)
        run(config)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(CardinalityConstraint, "contains", counted)
            result = run(config)
        assert result.status == REFINED and (result.distance == 0) == (rankings == 1)
        assert len(calls) == rankings * pairs
        verified = calls[-pairs:]  # the pass over the reported top-k*
        assert len(set(verified)) == pairs
        assert {tid for _, tid in verified} == {row.tid for row in result.topk}


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
    original = preparation(q, students_db).original_ranking
    assert len(original) >= scholarship_constraints.k_star
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
                    epsilon=Fraction(1), kind=DistanceKind(kind)))
    assert main(_args("no_perfect", kind, "1")) == EXIT_INVALID
    assert capsys.readouterr().out == ""


def test_refinement_with_fewer_than_k_star_tuples_fails_verification(
        students_db, scholarship_query, scholarship_constraints):
    config = _config(students_db, scholarship_query, scholarship_constraints,
                     epsilon=Fraction(1))
    instance = preparation(scholarship_query, students_db)
    too_tight = Refinement(numeric_constants={("GPA", ">="): Fraction(4)})
    assert 0 < len(engine.filter_annotated(
        instance, apply_refinement(scholarship_query, too_tight))) \
        < scholarship_constraints.k_star
    with pytest.raises(InternalConsistencyError, match="fewer than k"):
        engine._verified_result(config, instance, too_tight, REFINED, {}, {})
