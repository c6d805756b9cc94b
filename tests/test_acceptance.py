"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s`` to see
them) and fails loudly when its criterion does not hold.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_instance
from rankrefine.annotate import (
    annotate,
    evaluate,
    filter_annotated,
)
from rankrefine.bench import Scenario, run_scenario
from rankrefine.constraints import deviation
from rankrefine.distances import (
    JACCARD,
    KENDALL,
    PRED,
    DistanceKind,
    dis_jaccard,
    dis_kendall,
    dis_pred,
)
from rankrefine.engine import RunConfig, run
from rankrefine.errors import PreconditionError
from rankrefine.milp.build import BuildOptions, ModelBuilder, extract_refinement
from rankrefine.milp.solver import solve, solve_lp_relaxation
from rankrefine.oracle import exhaustive_solve
from rankrefine.query import apply_refinement
from test_solver import _random_model, brute_force

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TOL = 1e-6


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {desc}")


# -- shared randomized suite (criteria 4, 5, 6) -----------------------------

N_INSTANCES = 200


def _solve_instance(query, db, cs, epsilon, kind, options=None):
    """Build, solve, extract; returns (status, objective, builder, built,
    solution, exact_distance_of_extracted_refinement)."""
    builder = ModelBuilder(query, db, cs, epsilon, kind, options)
    built = builder.build()
    solution = solve(built.model)
    if solution.status != "optimal":
        return solution.status, None, builder, built, solution, None
    ref = extract_refinement(built, solution)
    q2 = apply_refinement(query, ref)
    ann = annotate(query, db)
    ranking = filter_annotated(ann, q2)
    by_id = {at.tid: at for at in ann}
    assert len(ranking) >= cs.k_star, "refined output shorter than k*"
    assert deviation(ranking, by_id, cs) <= epsilon, \
        "extracted refinement violates the deviation budget"
    if kind.name == PRED:
        dist = dis_pred(query, q2)
    else:
        original = filter_annotated(ann, query)
        if kind.name == JACCARD:
            dist = dis_jaccard(original, ranking, cs.k_star)
        else:
            dist = dis_kendall(original, ranking, cs.k_star)
    return "optimal", solution.objective_value, builder, built, solution, dist


def _counts_of(query, db, cs, ref):
    q2 = apply_refinement(query, ref)
    ann = annotate(query, db)
    ranking = filter_annotated(ann, q2)
    by_id = {at.tid: at for at in ann}
    return [sum(1 for tid in ranking[:c.k] if c.contains(by_id[tid]))
            for c in cs]


@pytest.fixture(scope="session")
def randomized_suite():
    """Oracle-vs-MILP results over >= 200 random instances, with the data the
    optimization-neutrality and round-trip criteria need."""
    rng = random.Random(20260826)
    kinds = [PRED, PRED, JACCARD, KENDALL]  # pred-heavy mix, all kinds present
    records = []
    started = time.monotonic()
    i = 0
    while len(records) < N_INSTANCES:
        i += 1
        query, db, cs, epsilon = random_instance(rng)
        kind_name = kinds[i % len(kinds)]
        kind = DistanceKind(kind_name)
        try:
            oracle = exhaustive_solve(query, db, cs, epsilon, kind)
        except PreconditionError:
            continue  # original output shorter than k* under an outcome kind
        status, objective, builder, built, solution, dist = _solve_instance(
            query, db, cs, epsilon, kind)

        flags = {}
        for name, options in (
            ("prune", BuildOptions(relevancy_prune=True)),
            ("merge", BuildOptions(merge_lineage=True)),
            ("relax", BuildOptions(relax_single_sense=True)),
        ):
            fstatus, fobjective, _, fbuilt, _, fdist = _solve_instance(
                query, db, cs, epsilon, kind, options)
            flags[name] = (fstatus, fobjective, fbuilt, fdist)

        records.append({
            "query": query, "db": db, "cs": cs, "epsilon": epsilon,
            "kind": kind, "oracle": oracle, "status": status,
            "objective": objective, "builder": builder, "built": built,
            "solution": solution,
            "distance": dist, "flags": flags,
        })
    return {"records": records, "wall_s": time.monotonic() - started}


def test_acceptance_1_running_example(students_db, scholarship_query,
                                      scholarship_constraints):
    with criterion(1, "running example returns the distance-0.5 refinement "
                      "in under 5 s, matching exhaustive search"):
        t0 = time.monotonic()
        result = run(RunConfig(query=scholarship_query, db=students_db,
                               constraints=scholarship_constraints,
                               epsilon=Fraction(0), kind=DistanceKind(PRED),
                               engine="milp+opt"))
        elapsed = time.monotonic() - t0
        assert result.status == "refined"
        assert result.distance == Fraction(1, 2)
        assert result.refinement.cat_values["Activity"] == frozenset({"RB", "SO"})
        assert result.refinement.numeric_constants[("GPA", ">=")] == Fraction("3.7")
        oracle = exhaustive_solve(scholarship_query, students_db,
                                  scholarship_constraints, Fraction(0),
                                  DistanceKind(PRED))
        assert oracle.distance == result.distance
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_acceptance_2_distance_fixtures(students_db, scholarship_query,
                                        ref_prime, ref_double_prime,
                                        ref_triple_prime):
    with criterion(2, "predicate, Jaccard, and rank distances match the "
                      "worked fixture values"):
        q1 = apply_refinement(scholarship_query, ref_prime)
        q2 = apply_refinement(scholarship_query, ref_double_prime)
        q3 = apply_refinement(scholarship_query, ref_triple_prime)
        assert dis_pred(scholarship_query, q1) == Fraction(1, 2)
        exact = Fraction("0.1") / Fraction("3.7") + Fraction(1, 2)
        assert dis_pred(scholarship_query, q2) == exact
        assert abs(float(exact) - 0.527) < 1e-3
        r0 = evaluate(scholarship_query, students_db)
        r1 = evaluate(q1, students_db)
        r2 = evaluate(q2, students_db)
        r3 = evaluate(q3, students_db)
        assert dis_jaccard(r0, r1, 3) == Fraction(4, 5)
        assert dis_jaccard(r0, r2, 3) == Fraction(1, 2)
        assert dis_kendall(r0, r2, 3) > dis_kendall(r0, r3, 3)


def test_acceptance_3_infeasible_instance(no_perfect_db, no_perfect_query,
                                          no_perfect_constraints):
    with criterion(3, "provably unsatisfiable constraints yield "
                      "no_refinement from every engine"):
        for engine in ("milp", "milp+opt", "naive", "naive+prov"):
            result = run(RunConfig(query=no_perfect_query, db=no_perfect_db,
                                   constraints=no_perfect_constraints,
                                   epsilon=Fraction(0),
                                   kind=DistanceKind(PRED), engine=engine))
            assert result.status == "no_refinement", engine


def test_acceptance_4_oracle_equivalence(randomized_suite):
    with criterion(4, f"MILP optimum equals exhaustive search on "
                      f"{N_INSTANCES} random instances"):
        records = randomized_suite["records"]
        assert len(records) >= N_INSTANCES
        kinds_seen = {r["kind"].name for r in records}
        assert kinds_seen == {PRED, JACCARD, KENDALL}
        feasible = 0
        for idx, rec in enumerate(records):
            oracle = rec["oracle"]
            if oracle.status == "no_refinement":
                assert rec["status"] == "infeasible", f"instance {idx}"
            else:
                feasible += 1
                assert rec["status"] == "optimal", f"instance {idx}"
                assert abs(float(rec["distance"]) - float(oracle.distance)) \
                    <= TOL, f"instance {idx}"
        assert feasible > 0
        assert randomized_suite["wall_s"] < 600, \
            f"suite took {randomized_suite['wall_s']:.0f}s"


def test_acceptance_5_optimization_neutrality(randomized_suite):
    with criterion(5, "pruning, merging, and relaxation never change the "
                      "optimal objective"):
        prunable_seen = 0
        for idx, rec in enumerate(records := randomized_suite["records"]):
            for name, (fstatus, fobjective, fbuilt, fdist) in rec["flags"].items():
                assert fstatus == rec["status"], f"instance {idx} [{name}]"
                if rec["status"] != "optimal":
                    continue
                assert abs(float(fdist) - float(rec["distance"])) <= TOL, \
                    f"instance {idx} [{name}]"
            # under DISTINCT, droppability counts distinct duplicate keys
            # rather than raw classmates, so the size argument below only
            # applies to DISTINCT-free instances
            if not rec["query"].distinct:
                plain_built = rec["built"]
                pruned_built = rec["flags"]["prune"][2]
                class_sizes = {}
                for at in rec["builder"].encoded:
                    class_sizes[at.lineage_class] = \
                        class_sizes.get(at.lineage_class, 0) + 1
                if max(class_sizes.values()) > rec["cs"].k_star:
                    prunable_seen += 1
                    assert pruned_built.stats["encoded_tuples"] < \
                        plain_built.stats["encoded_tuples"], f"instance {idx}"
        assert prunable_seen > 0


def test_acceptance_6_count_round_trip(randomized_suite):
    with criterion(6, "solution-side top-k membership sums equal evaluated "
                      "group counts and bound the exact deviation"):
        checked = 0
        for idx, rec in enumerate(randomized_suite["records"]):
            if rec["status"] != "optimal":
                continue
            checked += 1
            builder, built = rec["builder"], rec["built"]
            solution, cs = rec["solution"], rec["cs"]
            ref = extract_refinement(built, solution)
            counts = _counts_of(rec["query"], rec["db"], cs, ref)
            e_total = 0.0
            for i, c in enumerate(cs):
                members = [builder.l_col[(at.tid, c.k)]
                           for at in builder.encoded if c.contains(at)]
                l_sum = sum(round(solution.values[lv]) for lv in set(members))
                assert l_sum == counts[i], f"instance {idx}, constraint {i}"
                e_total += solution.values[built.model.col_names.index(f"E_{i}")] / c.n
            ann = annotate(rec["query"], rec["db"])
            by_id = {at.tid: at for at in ann}
            ranking = filter_annotated(ann, apply_refinement(rec["query"], ref))
            dev = deviation(ranking, by_id, cs)
            assert float(dev) <= e_total / len(cs) + TOL, f"instance {idx}"
            assert e_total / len(cs) <= float(rec["epsilon"]) + TOL, \
                f"instance {idx}"
        assert checked > 0


def test_acceptance_7_solver_against_brute_force():
    with criterion(7, "branch-and-bound matches brute-force enumeration on "
                      "100 random MILPs"):
        rng = random.Random(20260827)
        for trial in range(100):
            if trial % 5 == 4:
                model = _random_model(rng, n_bin=rng.randint(1, 8),
                                      n_cont=rng.randint(1, 3))
            else:
                model = _random_model(rng, n_bin=rng.randint(1, 14), n_cont=0)
            want = brute_force(model)
            got = solve(model)
            if want is None:
                assert got.status == "infeasible", f"trial {trial}"
                continue
            assert got.status == "optimal", f"trial {trial}"
            assert math.isclose(got.objective_value, want, abs_tol=TOL), \
                f"trial {trial}"
            relaxed = solve_lp_relaxation(model)
            assert relaxed.status == "optimal"
            assert relaxed.objective_value <= got.objective_value + TOL


def test_acceptance_8_experiment_axes(tmp_path):
    with criterion(8, "the bench harness covers every experiment axis on "
                      "miniature data with sane monotone behaviour"):
        base = {
            "data": {
                "Students": str(SCENARIOS / "data" / "students.csv"),
                "Activities": str(SCENARIOS / "data" / "activities.csv"),
            },
            "query": str(SCENARIOS / "scholarship" / "query.sql"),
            "constraints": str(SCENARIOS / "scholarship" / "constraints.json"),
            "distances": [PRED],
            "engines": ["milp+opt"],
            "epsilon": "1",
        }
        sweeps = {
            "k": [2, 3, 4],
            "epsilon": ["0", "1/4", "1"],
            "constraint_count": [1, 2],
            "constraint_type": ["lower", "upper", "both"],
            "scale": [10, 14],
        }
        ratio_constraints = tmp_path / "ratio.json"
        ratio_constraints.write_text(json.dumps([
            {"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n_ratio": 0.5},
        ]))
        for axis, values in sweeps.items():
            raw = dict(base, name=f"mini-{axis}",
                       sweep={"axis": axis, "values": values})
            if axis == "k":
                raw["constraints"] = str(ratio_constraints)
            path = tmp_path / f"{axis}.scenario.json"
            path.write_text(json.dumps(raw))
            rows = run_scenario(Scenario.load(path), repeats=1)
            assert len(rows) == len(values), axis
            assert all(r.status == "refined" for r in rows), axis
            if axis == "constraint_count":
                assert rows[0].model_rows < rows[1].model_rows
            if axis == "epsilon":
                dists = [Fraction(r.distance_value) for r in rows]
                assert dists == sorted(dists, reverse=True)
