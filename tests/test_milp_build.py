import math
import random
from fractions import Fraction

import pytest
from conftest import random_instance

from rankrefine.annotate import prepared
from rankrefine.constraints import CardinalityConstraint, ConstraintSet
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind, dis_pred
from rankrefine.errors import InternalConsistencyError, PreconditionError
from rankrefine.milp.build import (
    BuildOptions,
    ModelBuilder,
    build_model,
    extract_refinement,
)
from rankrefine.milp.model import CONTINUOUS, MILPModel, Row, Solution
from rankrefine.milp.solver import solve
from rankrefine.oracle import numeric_candidates
from rankrefine.query import NumPredicate, Refinement, apply_refinement, parse_query


def _build(q, db, cs, eps, kind=None, **opts):
    return build_model(q, db, cs, Fraction(eps), kind or DistanceKind(PRED),
                       BuildOptions(**opts) if opts else None)


def _gpa_values(result):
    return sorted({at.tuple["GPA"] for at in result.encoded})


def _gpa_query(op):
    return parse_query(f"SELECT * FROM Students WHERE GPA {op} 3.7 ORDER BY SAT DESC")


_ONE_LOWER = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 2, 1, "lower"),))


def test_numeric_family_parameters(students_db):
    for op in ("<", "<=", "=", ">", ">="):
        _check_numeric_family(students_db, op)


def _check_numeric_family(students_db, op):
    q = _gpa_query(op)
    result = _build(q, students_db, _ONE_LOWER, 1)
    fam = result.num_families[("GPA", op)]
    values = _gpa_values(result)
    assert fam.domain == values
    assert sorted(fam.indicators) == values
    # every selection the chain allows has a constant ...
    m = len(values)
    if op in (">", ">="):
        allowed = {range(i, m) for i in range(m + 1)}
    elif op in ("<", "<="):
        allowed = {range(i) for i in range(m + 1)}
    else:
        allowed = {range(i, i + 1) for i in range(m)} | {range(0)}
    assert set(fam.constants) == allowed
    cands = numeric_candidates(values, q.numeric_preds[0].constant)
    model = result.model
    for positions, c in fam.constants.items():
        selected = {values[i] for i in positions}
        assert {v for v in values if NumPredicate("GPA", op, c).holds(v)} == selected
        # ... the closest candidate to the original that makes it ...
        same = [x for x in cands
                if {v for v in values if NumPredicate("GPA", op, x).holds(v)} == selected]
        assert c == min(same, key=lambda x: (abs(x - Fraction("3.7")), x))
        # ... and the objective prices it at its exact predicate distance
        refined = apply_refinement(q, Refinement(numeric_constants={("GPA", op): c}))
        priced = model.objective_constant + sum(
            model.objective.get(fam.indicators[v], 0.0) for v in selected)
        assert priced == pytest.approx(float(dis_pred(q, refined)), abs=1e-12)


def _rows_touching(model, names):
    return [r for r in model.rows if set(r.coeffs) & set(names)]


def test_indicator_row_shapes(students_db):
    for op in ("<", "<=", ">", ">="):
        result = _build(_gpa_query(op), students_db, _ONE_LOWER, 1)
        fam = result.num_families[("GPA", op)]
        # inner to outer: ascending for upper sets, descending for lower sets
        names = [fam.indicators[v] for v in fam.domain]
        if op in ("<", "<="):
            names.reverse()
        chain = [r for r in _rows_touching(result.model, names)
                 if r.name.startswith("chain")]
        # a selected value implies its outer neighbour: one row per pair
        assert [(r.coeffs, r.sense, r.rhs) for r in chain] == [
            ({inner: 1.0, outer: -1.0}, "<=", 0.0)
            for inner, outer in zip(names, names[1:])]
        # no row carries a data value
        for row in _rows_touching(result.model, names):
            assert {row.coeffs[a] for a in names if a in row.coeffs} <= {1.0, -1.0}
            assert row.rhs == int(row.rhs)
        assert not any(v.kind == CONTINUOUS and v.name.startswith(("C_", "d_"))
                       for v in result.model.variables)


def _chain_submodel(result, fam, selected):
    """The family's indicators and the rows among them, with the indicator
    of every domain value pinned to whether it is in ``selected``."""
    names = set(fam.indicators.values())
    rows = [r for r in result.model.rows if set(r.coeffs) <= names]
    rows += [Row(f"pin_{a}", {a: 1.0}, "=", float(v in selected))
             for v, a in fam.indicators.items()]
    return MILPModel(
        variables=[v for v in result.model.variables if v.name in names],
        rows=rows, objective={})


@pytest.mark.parametrize("pin, satisfied", [
    (("3.7", "3.8", "3.9", "4.0"), True),  # GPA >= 3.7
    (("3.6", "3.8", "3.9", "4.0"), False),  # 3.6 on but 3.7 off
    ((), True),                            # nothing passes
])
def test_indicator_semantics(students_db, scholarship_query,
                             scholarship_constraints, pin, satisfied):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    fam = result.num_families[("GPA", ">=")]
    sub = _chain_submodel(result, fam, {Fraction(v) for v in pin})
    assert solve(sub).status == ("optimal" if satisfied else "infeasible")


@pytest.mark.parametrize("on", [
    {"3.6"},                        # not an upper set
    {"3.6", "3.7", "3.9", "4.0"},  # the whole domain but for 3.8
])
def test_non_chain_selection_is_rejected_on_extract(students_db, scholarship_query,
                                                    scholarship_constraints, on):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    sol = solve(result.model)
    fam = result.num_families[("GPA", ">=")]
    bent = dict(sol.assignment)
    bent.update({a: float(v in {Fraction(x) for x in on})
                 for v, a in fam.indicators.items()})
    with pytest.raises(InternalConsistencyError):
        extract_refinement(result, Solution("optimal", bent))


def test_equality_predicate_selects_at_most_one_value(students_db):
    q = _gpa_query("=")
    result = _build(q, students_db, _ONE_LOWER, 1)
    fam = result.num_families[("GPA", "=")]
    names = [fam.indicators[v] for v in fam.domain]
    assert len(set(names)) == len(fam.domain)
    rows = _rows_touching(result.model, names)
    at_most_one = [r for r in rows if set(r.coeffs) == set(names)]
    assert [(r.sense, r.rhs) for r in at_most_one] == [("<=", 1.0)]
    assert set(at_most_one[0].coeffs.values()) == {1.0}
    sub = _chain_submodel(result, fam, {Fraction("3.7"), Fraction("3.8")})
    assert solve(sub).status == "infeasible"
    # selecting nothing picks the closer off-domain candidate, smaller first
    none = {a: 0.0 for a in names}
    empty = extract_refinement(result, Solution("optimal", {
        **solve(result.model).assignment, **none}))
    gap = min(b - a for a, b in zip(fam.domain, fam.domain[1:])) / 2
    assert empty.numeric_constants[("GPA", "=")] == Fraction("3.7") - gap


def test_selection_rows_for_conjunction(students_db, scholarship_query,
                                        scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    at6 = next(at for at in result.encoded if at.tuple["ID"] == Fraction(6))
    r = result.r_name[at6.tuple.tid]
    gpa_fam = result.num_families[("GPA", ">=")]
    act_fam = result.cat_families["Activity"]
    atoms = {gpa_fam.indicators[at6.tuple["GPA"]],
             act_fam.indicators["SO"]}
    up = next(row for row in result.model.rows
              if row.sense == "<=" and row.coeffs.get(r) == 2.0)
    lo = next(row for row in result.model.rows
              if row.sense == ">=" and set(row.coeffs) == {r} | atoms
              and row.coeffs[r] == 1.0)
    assert up.coeffs == {r: 2.0, **{a: -1.0 for a in atoms}}
    assert up.rhs == 0.0
    assert lo.coeffs == {r: 1.0, **{a: -1.0 for a in atoms}}
    assert lo.rhs == -1.0


def test_shadow_membership_coupling(students_db, scholarship_query,
                                    scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    fours = sorted((at for at in result.encoded if at.tuple["ID"] == Fraction(4)),
                   key=lambda at: at.base_rank)
    first, second = fours
    r2 = result.r_name[second.tuple.tid]
    r1 = result.r_name[first.tuple.tid]
    up = next(row for row in result.model.rows
              if row.sense == "<=" and row.coeffs.get(r2, 0) > 1 and r1 in row.coeffs)
    # one shadow: r gets coefficient atoms+shadows = 3, shadow +1, rhs 1
    assert up.coeffs[r2] == 3.0
    assert up.coeffs[r1] == 1.0
    assert up.rhs == 1.0


def test_deviation_row_zero_budget(students_db, scholarship_query,
                                   scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    dev = next(r for r in result.model.rows if r.name.startswith("deviation"))
    assert dev.sense == "<=" and dev.rhs == 0.0
    # lcm(3, 1) / n_c coefficients
    assert sorted(dev.coeffs.values()) == [1.0, 3.0]


def test_relevancy_pruning_drops_hopeless_classmate(students_db,
                                                    scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 2, 1, "lower"),))
    full = _build(scholarship_query, students_db, cs, 0)
    pruned = _build(scholarship_query, students_db, cs, 0, relevancy_prune=True)
    assert pruned.stats["pruned_tuples"] > 0
    assert pruned.stats["encoded_tuples"] < full.stats["encoded_tuples"]
    # student 14 trails students 7 and 10 in its own lineage class with k*=2
    tids_14 = {at.tuple.tid for at in full.encoded if at.tuple["ID"] == Fraction(14)}
    assert tids_14 and not any(
        at.tuple.tid in tids_14 for at in pruned.encoded)
    # the original top-k* always survives
    kept = {at.tuple.tid for at in pruned.encoded}
    assert set(pruned.original_topk) <= kept


def _pruned_per_tuple(instance, k_star):
    """Relevancy pruning as one walk over every tuple: the reference."""
    keep, per_class = set(), {}
    for at in instance:
        earlier = per_class.setdefault(at.lineage_class, [])
        if instance.key_attrs:
            key = tuple(at.tuple[a] for a in instance.key_attrs)
            better = len(set(earlier) - {key})
        else:
            key, better = None, len(earlier)
        if better < k_star:
            keep.add(at.tuple.tid)
        earlier.append(key)
    keep |= {tid for at in instance if at.tuple.tid in keep for tid in at.shadow}
    return [at.tuple.tid for at in instance if at.tuple.tid in keep]


def test_relevancy_pruning_per_class_matches_the_per_tuple_walk():
    rng = random.Random(7)
    distinct = dropped = 0
    for _ in range(60):
        q, db, _, eps = random_instance(rng, max_rows=40)
        distinct += q.distinct
        instance = prepared(q, db)
        for k_star in range(1, 7):
            cs = ConstraintSet((CardinalityConstraint((("g", "a"),), k_star, 1, "lower"),))
            builder = ModelBuilder(q, db, cs, eps, DistanceKind(PRED),
                                   BuildOptions(relevancy_prune=True))
            builder.relevancy_prune()
            kept = [at.tuple.tid for at in builder.encoded]
            assert kept == _pruned_per_tuple(instance, k_star)
            dropped += len(kept) < len(instance)
    assert 0 < distinct < 60 and dropped > 0


def test_merge_lineage_collapses_classes(students_db):
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                    "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 3, 1, "lower"),))
    plain = _build(q, students_db, cs, 1)
    merged = _build(q, students_db, cs, 1, merge_lineage=True)
    assert merged.stats["lineage_classes"] < merged.stats["encoded_tuples"]
    assert len(set(merged.r_name.values())) == merged.stats["lineage_classes"]
    assert len(set(plain.r_name.values())) == plain.stats["encoded_tuples"]


def test_merge_lineage_ignored_under_distinct(students_db, scholarship_query,
                                              scholarship_constraints):
    merged = _build(scholarship_query, students_db, scholarship_constraints, 0,
                    merge_lineage=True)
    assert len(set(merged.r_name.values())) == merged.stats["encoded_tuples"]


def test_build_is_deterministic(students_db, scholarship_query,
                                scholarship_constraints):
    one = _build(scholarship_query, students_db, scholarship_constraints, 0)
    two = _build(scholarship_query, students_db, scholarship_constraints, 0)
    assert one.model == two.model


def test_identity_refinement_when_budget_is_loose(students_db,
                                                  scholarship_query,
                                                  scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 1)
    sol = solve(result.model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
    ref = extract_refinement(result, sol)
    q2 = apply_refinement(scholarship_query, ref)
    assert dis_pred(scholarship_query, q2) == 0


def test_flagship_pred_solution(students_db, scholarship_query,
                                scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0)
    sol = solve(result.model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.5, abs=1e-9)
    ref = extract_refinement(result, sol)
    assert ref.numeric_constants[("GPA", ">=")] == Fraction("3.7")
    assert ref.cat_values["Activity"] == frozenset({"RB", "SO"})


def test_no_perfect_refinement_is_infeasible(no_perfect_db, no_perfect_query,
                                             no_perfect_constraints):
    result = _build(no_perfect_query, no_perfect_db, no_perfect_constraints, 0)
    assert solve(result.model).status == "infeasible"


def test_relaxation_preserves_optimum_single_sense(students_db,
                                                   scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 6, 3, "lower"),))
    plain = _build(scholarship_query, students_db, cs, 0)
    relaxed = _build(scholarship_query, students_db, cs, 0,
                     relax_single_sense=True)
    assert relaxed.stats["rows"] < plain.stats["rows"]
    a, b = solve(plain.model), solve(relaxed.model)
    assert a.status == b.status == "optimal"
    assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)


def test_outcome_build_requires_long_enough_original(students_db,
                                                     scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 9, 1, "lower"),))
    with pytest.raises(PreconditionError):
        _build(scholarship_query, students_db, cs, 1,
               kind=DistanceKind(JACCARD, 9))


def test_negative_epsilon_rejected(students_db, scholarship_query,
                                   scholarship_constraints):
    with pytest.raises(PreconditionError):
        _build(scholarship_query, students_db, scholarship_constraints, -1)


def test_outcome_kinds_give_topk_binaries_to_every_tuple(students_db,
                                                         scholarship_query,
                                                         scholarship_constraints):
    result = _build(scholarship_query, students_db, scholarship_constraints, 0,
                    kind=DistanceKind(KENDALL, 6))
    k_star = scholarship_constraints.k_star
    for at in result.encoded:
        assert (at.tuple.tid, k_star) in result.l_name
