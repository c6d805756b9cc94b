import math
import operator
import random
from fractions import Fraction

import pytest

from conftest import random_instance, relation

from rankrefine.annotate import filter_annotated, preparation
from rankrefine.constraints import CardinalityConstraint, ConstraintSet, deviation
from rankrefine.data import Database, Schema
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind, dis_kendall, dis_pred
from rankrefine.engine import BUILD_OPTIONS
from rankrefine.errors import InternalConsistencyError, PreconditionError
from rankrefine.milp.build import (
    ROW_FAMILIES,
    BuildOptions,
    ModelBuilder,
    build_model,
    extract_refinement,
)
from rankrefine.milp.model import CONTINUOUS, MILPModel, Solution
from rankrefine.milp.solver import solve
from rankrefine.oracle import numeric_candidates, refinement_space
from rankrefine.query import (
    CatPredicate,
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
    parse_query,
)


def _build(q, db, cs, eps, kind=None, **opts):
    return build_model(q, db, cs, Fraction(eps), kind or DistanceKind(PRED),
                       BuildOptions(**opts) if opts else None)


def _built(q, db, cs, eps, kind=None, **opts):
    """A builder that has built its model, and the result it returned: the
    builder holds the internals (encoded tuples, membership columns)."""
    builder = ModelBuilder(q, db, cs, Fraction(eps), kind or DistanceKind(PRED),
                           BuildOptions(**opts))
    return builder, builder.build()


def _gpa_values(builder):
    return sorted({at["GPA"] for at in builder.encoded})


def _gpa_query(op):
    return parse_query(f"SELECT * FROM Students WHERE GPA {op} 3.7 ORDER BY SAT DESC")


_ONE_LOWER = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 2, 1, "lower"),))


def test_numeric_family_parameters(students_db):
    for op in ("<", "<=", "=", ">", ">="):
        _check_numeric_family(students_db, op)


def _check_numeric_family(students_db, op):
    q = _gpa_query(op)
    builder, result = _built(q, students_db, _ONE_LOWER, 1)
    fam = result.num_families[("GPA", op)]
    values = _gpa_values(builder)
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
            model.col_cost[fam.indicators[v]] for v in selected)
        assert priced == pytest.approx(float(dis_pred(q, refined)), abs=1e-12)


def _rows_touching(model, names):
    return [r for r in model.rows if set(r.coeffs) & set(names)]


def _indicator_names(result, fam, values):
    return [result.model.col_names[fam.indicators[v]] for v in values]


def test_indicator_row_shapes(students_db):
    for op in ("<", "<=", ">", ">="):
        result = _build(_gpa_query(op), students_db, _ONE_LOWER, 1)
        fam = result.num_families[("GPA", op)]
        # inner to outer: ascending for upper sets, descending for lower sets
        names = _indicator_names(result, fam, fam.domain)
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
        assert not any(kind == CONTINUOUS and name.startswith(("C_", "d_"))
                       for kind, name in zip(result.model.col_kinds, result.model.col_names))


def _chain_submodel(result, fam, selected):
    """The family's indicators and the rows among them, with the indicator
    of every domain value pinned to whether it is in ``selected``."""
    names = set(_indicator_names(result, fam, fam.domain))
    model, sub = result.model, MILPModel()
    col = {name: sub.add_column(kind, lb, ub, name)
           for name, kind, lb, ub in zip(model.col_names, model.col_kinds,
                                         model.col_lower, model.col_upper)
           if name in names}
    for r in result.model.rows:
        if set(r.coeffs) <= names:
            sub.add_row([col[a] for a in r.coeffs], r.coeffs.values(), r.sense, r.rhs, r.name)
    for v, a in zip(fam.domain, _indicator_names(result, fam, fam.domain)):
        sub.add_row([col[a]], [1.0], "=", float(v in selected), "pin", a)
    return sub


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
    bent = list(sol.values)
    for v in fam.domain:
        bent[fam.indicators[v]] = float(v in {Fraction(x) for x in on})
    with pytest.raises(InternalConsistencyError):
        extract_refinement(result, Solution("optimal", bent))


def test_equality_predicate_selects_at_most_one_value(students_db):
    q = _gpa_query("=")
    result = _build(q, students_db, _ONE_LOWER, 1)
    fam = result.num_families[("GPA", "=")]
    names = _indicator_names(result, fam, fam.domain)
    assert len(set(names)) == len(fam.domain)
    rows = _rows_touching(result.model, names)
    at_most_one = [r for r in rows if set(r.coeffs) == set(names)]
    assert [(r.sense, r.rhs) for r in at_most_one] == [("<=", 1.0)]
    assert set(at_most_one[0].coeffs.values()) == {1.0}
    sub = _chain_submodel(result, fam, {Fraction("3.7"), Fraction("3.8")})
    assert solve(sub).status == "infeasible"
    # selecting nothing picks the closer off-domain candidate, smaller first
    none = list(solve(result.model).values)
    for v in fam.domain:
        none[fam.indicators[v]] = 0.0
    empty = extract_refinement(result, Solution("optimal", none))
    gap = min(b - a for a, b in zip(fam.domain, fam.domain[1:])) / 2
    assert empty.numeric_constants[("GPA", "=")] == Fraction("3.7") - gap


def test_selection_rows_for_conjunction(students_db, scholarship_query,
                                        scholarship_constraints):
    builder, result = _built(scholarship_query, students_db, scholarship_constraints, 0)
    at6 = next(at for at in builder.encoded if at["ID"] == Fraction(6))
    r = result.model.col_names[builder.r_col[at6.tid]]
    gpa_fam = result.num_families[("GPA", ">=")]
    act_fam = result.cat_families["Activity"]
    atoms = {*_indicator_names(result, gpa_fam, [at6["GPA"]]),
             *_indicator_names(result, act_fam, ["SO"])}
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
    builder, result = _built(scholarship_query, students_db, scholarship_constraints, 0)
    fours = sorted((at for at in builder.encoded if at["ID"] == Fraction(4)),
                   key=lambda at: at.base_rank)
    first, second = fours
    r2 = result.model.col_names[builder.r_col[second.tid]]
    r1 = result.model.col_names[builder.r_col[first.tid]]
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
    full, full_result = _built(scholarship_query, students_db, cs, 0)
    pruned, pruned_result = _built(scholarship_query, students_db, cs, 0,
                                   relevancy_prune=True)
    assert pruned_result.stats["pruned_tuples"] > 0
    assert pruned_result.stats["encoded_tuples"] < full_result.stats["encoded_tuples"]
    # student 14 trails students 7 and 10 in its own lineage class with k*=2
    tids_14 = {at.tid for at in full.encoded if at["ID"] == Fraction(14)}
    assert tids_14 and not any(
        at.tid in tids_14 for at in pruned.encoded)
    # the original top-k* always survives
    kept = {at.tid for at in pruned.encoded}
    assert set(pruned.original_topk) <= kept


def _per_class_kept(instance, k_star):
    """The paper's relevancy pruning: a tuple is dropped once k* of its
    better-ranked classmates carry DISTINCT keys other than its own."""
    keep, per_class = set(), {}
    for at in instance:
        earlier = per_class.setdefault(at.lineage_class, [])
        if len(set(earlier) - {at.key}) < k_star:
            keep.add(at.tid)
        earlier.append(at.key)
    return _with_shadows(instance, keep)


def _dominates(q, u, t):
    """Every refinement of ``q`` that selects ``t`` selects ``u``."""
    for p in q.numeric_preds:
        a = p.attribute
        if not (u[a] >= t[a] if p.op in (">=", ">") else
                u[a] <= t[a] if p.op in ("<=", "<") else u[a] == t[a]):
            return False
    return all(u[p.attribute] == t[p.attribute] for p in q.cat_preds)


def _dominance_kept(instance, q, k_star):
    """Dominance pruning as an O(n^2) walk: a tuple is dropped once the
    better-ranked tuples that dominate it carry k* keys other than its own."""
    keep = set()
    for n, at in enumerate(instance.annotated):
        keys = {u.key for u in instance.annotated[:n] if _dominates(q, u, at)}
        if len(keys - {at.key}) < k_star:
            keep.add(at.tid)
    return _with_shadows(instance, keep)


def _with_shadows(instance, keep):
    """``keep`` with every better-ranked tuple of a kept tuple's key."""
    worst = {at.key: at.base_rank for at in instance if at.tid in keep}
    keep |= {at.tid for at in instance if at.base_rank < worst.get(at.key, 0)}
    return [at.tid for at in instance if at.tid in keep]


def _dominance_instance(rng):
    """A relation over a DISTINCT key, a categorical attribute and four
    numeric ones, queried with a random subset of: a categorical predicate,
    an ``=`` predicate, a two-sided pair and two one-sided predicates."""
    schema = Schema.from_pairs([("id", "numerical"), ("g", "categorical"),
                                ("e", "numerical"), ("w", "numerical"),
                                ("x", "numerical"), ("y", "numerical"),
                                ("score", "numerical")])
    rows = [{"id": Fraction(rng.randint(1, 6)), "g": rng.choice("abc"),
             **{a: Fraction(rng.randint(0, 4)) for a in "ewxy"},
             "score": Fraction(rng.randint(0, 30))}
            for _ in range(1, rng.randint(10, 45))]
    db = Database()
    db.add(relation("T", schema, rows))
    num = []
    if rng.random() < 0.4:
        num.append(NumPredicate("e", "=", Fraction(2)))
    if rng.random() < 0.4:
        num += [NumPredicate("w", ">=", Fraction(1)), NumPredicate("w", "<", Fraction(4))]
    for a in "xy":
        if rng.random() < 0.6:
            num.append(NumPredicate(a, rng.choice(("<", "<=", ">", ">=")), Fraction(2)))
    cat = (CatPredicate("g", frozenset("ab")),) if rng.random() < 0.6 else ()
    distinct = rng.random() < 0.5
    q = Query(("T",), ("id",) if distinct else ("*",), distinct, tuple(num), cat,
              ("score", rng.choice(("ASC", "DESC"))))
    return q, db


def test_relevancy_pruning_matches_the_dominance_walks():
    rng = random.Random(7)
    distinct = exact = bounded = dropped = 0
    for _ in range(80):
        q, db = _dominance_instance(rng)
        distinct += q.distinct
        instance = preparation(q, db)
        one_sided = {p.attribute for p in q.numeric_preds if p.attribute in "xy"}
        for k_star in range(1, 6):
            cs = ConstraintSet((CardinalityConstraint((("g", "a"),), k_star, 1, "lower"),))
            builder = ModelBuilder(q, db, cs, Fraction(0), DistanceKind(PRED),
                                   BuildOptions(relevancy_prune=True))
            builder.relevancy_prune()
            kept = [at.tid for at in builder.encoded]
            per_class = _per_class_kept(instance, k_star)
            full = _dominance_kept(instance, q, k_star)
            # at least as strong as the per-class rule, never stronger than
            # full dominance, and full dominance itself with one axis
            assert set(kept) <= set(per_class)
            assert set(kept) >= set(full)
            if len(one_sided) <= 1:
                assert kept == full
                exact += 1
            else:
                bounded += 1
            assert set(instance.original_ranking[:k_star]) <= set(kept)
            dropped += len(kept) < len(per_class)
    assert 0 < distinct < 80 and exact and bounded and dropped


def test_merge_lineage_collapses_classes(students_db):
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                    "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 3, 1, "lower"),))
    plain, plain_result = _built(q, students_db, cs, 1)
    merged, merged_result = _built(q, students_db, cs, 1, merge_lineage=True)
    assert merged_result.stats["lineage_classes"] < merged_result.stats["encoded_tuples"]
    assert len(set(merged.r_col.values())) == merged_result.stats["lineage_classes"]
    assert len(set(plain.r_col.values())) == plain_result.stats["encoded_tuples"]


def test_merge_lineage_ignored_under_distinct(students_db, scholarship_query,
                                              scholarship_constraints):
    merged, result = _built(scholarship_query, students_db, scholarship_constraints, 0,
                            merge_lineage=True)
    assert len(set(merged.r_col.values())) == result.stats["encoded_tuples"]


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


def test_upper_only_relaxed_build_keeps_every_row(students_db, scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "M"),), 6, 3, "upper"),))
    opts = dict(relevancy_prune=True, merge_lineage=True)
    plain = _build(scholarship_query, students_db, cs, 0, **opts)
    relaxed = _build(scholarship_query, students_db, cs, 0, relax_single_sense=True, **opts)
    assert relaxed.model == plain.model
    assert relaxed.stats == plain.stats


def _family_nnz(model, family: str) -> int:
    labels = ROW_FAMILIES[family]
    return sum(model.row_start[r + 1] - model.row_start[r]
               for r, label in enumerate(model.row_labels) if label[0] in labels)


_ROSTER_QUERY = parse_query("SELECT * FROM T WHERE x >= 2 ORDER BY score DESC")
_ROSTER_CONSTRAINTS = ConstraintSet((CardinalityConstraint((("g", "a"),), 5, 2, "lower"),))


def _rosters():
    """Random n-row rosters for n = 20, 80 and 320."""
    schema = Schema.from_pairs([("g", "categorical"), ("x", "numerical"),
                                ("score", "numerical")])
    rng = random.Random(3)
    for n in (20, 80, 320):
        rows = [{"g": rng.choice("ab"), "x": Fraction(rng.randint(0, 4)),
                 "score": Fraction(rng.randint(0, 1000))} for _ in range(n)]
        db = Database()
        db.add(relation("T", schema, rows))
        yield n, db


def test_position_rows_grow_linearly_with_the_encoded_tuples():
    for n, db in _rosters():
        builder, result = _built(_ROSTER_QUERY, db, _ROSTER_CONSTRAINTS, 0,
                                 kind=DistanceKind(KENDALL))
        encoded = builder.encoded
        assert len(encoded) == n
        # the constraint's members and the original top-k* have a count
        needed = set(builder.original_topk)
        needed.update(at.tid for at in builder.members[0])
        last = max(i for i, at in enumerate(encoded) if at.tid in needed)
        # each running count lists its own column, the previous count and
        # the membership columns since: each one up to the last count once
        nnz = _family_nnz(result.model, "position")
        assert nnz == 2 * len(needed) - 1 + last + 1 <= 3 * n - 1
        assert result.stats["rows_by_family"]["position"] == len(needed)


def test_kendall_objective_has_three_entries_per_original_topk_tuple():
    k_star = _ROSTER_CONSTRAINTS.k_star
    for _, db in _rosters():
        _, result = _built(_ROSTER_QUERY, db, _ROSTER_CONSTRAINTS, 0,
                           kind=DistanceKind(KENDALL))
        assert _family_nnz(result.model, "objective") == 3 * k_star
        assert result.stats["rows_by_family"]["objective"] == k_star


@pytest.mark.parametrize("engine", BUILD_OPTIONS)
def test_running_counts_are_the_refined_positions(engine):
    """The solved count of each selected tuple that has one is its 1-based
    position in the refined query's exact ranking; pruning leaves it exact
    up to k*, beyond which it only tells that the tuple is past k*."""
    options = BUILD_OPTIONS[engine]
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        q, db, cs, eps = random_instance(rng)
        kind = DistanceKind(rng.choice([PRED, JACCARD, KENDALL]))
        try:
            builder = ModelBuilder(q, db, cs, Fraction(eps), kind, options)
            result = builder.build()
        except PreconditionError:
            continue
        solution = solve(result.model)
        if solution.status != "optimal":
            continue
        ranking = filter_annotated(builder.instance, apply_refinement(
            q, extract_refinement(result, solution)))
        column = {name: col for col, name in enumerate(result.model.col_names)}
        for at in builder.encoded:
            tid = at.tid
            if round(solution.values[builder.r_col[tid]]) != 1 or f"P_{tid}" not in column:
                continue
            count = solution.values[column[f"P_{tid}"]]
            position = ranking.index(tid) + 1
            if options.relevancy_prune and position > cs.k_star:
                assert count > cs.k_star
            else:
                assert count == pytest.approx(position, abs=1e-6)
            checked += 1
    assert checked > 100


_SATISFIES = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
              ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("engine", BUILD_OPTIONS)
def test_kendall_objective_is_the_distance_at_every_refinement(engine):
    """With its indicators fixed to a refinement, the ``kendall`` model is
    feasible exactly when the refinement is, and its optimum is then the
    exact distance of the refined top-k* from the original one."""
    rng = random.Random(5)
    checked = 0
    for _ in range(150):
        q, db, cs, _ = random_instance(rng)
        try:
            result = build_model(q, db, cs, Fraction(1), DistanceKind(KENDALL),
                                 BUILD_OPTIONS[engine])
        except PreconditionError:
            continue
        instance, k_star, model = preparation(q, db), cs.k_star, result.model
        seen = set()
        for q2 in refinement_space(q, db):
            constants = {(p.attribute, p.op): p.constant for p in q2.numeric_preds}
            value_sets = {p.attribute: p.values for p in q2.cat_preds}
            pattern = []
            for (attr, op), fam in result.num_families.items():
                c = constants[(attr, op)]
                pattern += [(col, _SATISFIES[op](v, c)) for v, col in fam.indicators.items()]
            for attr, fam in result.cat_families.items():
                pattern += [(col, v in value_sets[attr])
                            for v, col in fam.indicators.items()]
            # the space holds one refined query per indicator pattern
            assert tuple(pattern) not in seen, q2
            seen.add(tuple(pattern))
            for col, on in pattern:  # a binary's bounds must stay [0, 1]
                model.col_kinds[col] = CONTINUOUS
                model.col_lower[col] = model.col_upper[col] = float(on)
            solution = solve(model)
            ranking = filter_annotated(instance, q2)
            if len(ranking) < k_star or deviation(ranking, instance.tuples_by_id, cs) > 1:
                assert solution.status == "infeasible"
                continue
            assert solution.status == "optimal"
            assert solution.objective_value == pytest.approx(
                dis_kendall(instance.original_ranking, ranking, k_star), abs=1e-6)
            checked += 1
    assert checked > 1000


def test_outcome_build_requires_long_enough_original(students_db,
                                                     scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 9, 1, "lower"),))
    with pytest.raises(PreconditionError):
        _build(scholarship_query, students_db, cs, 1,
               kind=DistanceKind(JACCARD))


def test_negative_epsilon_rejected(students_db, scholarship_query,
                                   scholarship_constraints):
    with pytest.raises(PreconditionError):
        _build(scholarship_query, students_db, scholarship_constraints, -1)


@pytest.mark.parametrize("distance", [JACCARD, KENDALL])
def test_outcome_kinds_give_topk_binaries_to_the_original_topk_and_members(
        students_db, scholarship_query, scholarship_constraints, distance):
    builder, _ = _built(scholarship_query, students_db, scholarship_constraints, 0,
                        kind=DistanceKind(distance))
    k_star = scholarship_constraints.k_star
    wanted = {(tid, k_star) for tid in builder.original_topk}
    for c, members in zip(scholarship_constraints, builder.members):
        wanted.update((at.tid, c.k) for at in members)
    assert set(builder.l_col) == wanted
    # some encoded tuple is neither, and has no top-k binary
    assert len({tid for tid, _ in wanted}) < len(builder.encoded)


def _low_cardinality_distinct(rows=3000, keys=20):
    """Thousands of rows over about twenty DISTINCT keys, so every key has
    a long chain of better-ranked tuples."""
    rng = random.Random(5)
    schema = Schema.from_pairs([("name", "categorical"), ("g", "categorical"),
                                ("x", "numerical"), ("score", "numerical")])
    db = Database()
    db.add(relation("T", schema, (
        {"name": f"n{rng.randrange(keys)}", "g": rng.choice("ab"),
         "x": Fraction(rng.randrange(40)), "score": Fraction(rng.randrange(10**6))}
        for _ in range(rows))))
    q = parse_query("SELECT DISTINCT name FROM T WHERE x >= 30 AND g = 'a' "
                    "ORDER BY score DESC")
    return q, db


def test_low_cardinality_distinct_chains_prune_and_solve():
    from rankrefine.engine import RunConfig, run
    q, db = _low_cardinality_distinct()
    instance = preparation(q, db)
    keys = {at.key for at in instance}
    assert len(keys) == 20
    assert sum(at.prev is not None for at in instance) == len(instance) - len(keys)
    cs = ConstraintSet((CardinalityConstraint((("g", "b"),), 5, 2, "lower"),))
    for kind in (PRED, JACCARD, KENDALL):
        for eps in (Fraction(0), Fraction(1, 2)):
            got = [run(RunConfig(q, db, cs, eps, DistanceKind(kind), engine=engine))
                   for engine in ("milp+opt", "naive+prov")]
            assert got[0].status == got[1].status, (kind, eps)
            assert got[0].distance == got[1].distance, (kind, eps)
    # pruning keeps every encoded tuple's better-ranked tuples of its key
    builder, result = _built(q, db, cs, 0, relevancy_prune=True)
    assert 0 < result.stats["pruned_tuples"]
    encoded = {at.tid for at in builder.encoded}
    assert all(at.prev.tid in encoded for at in builder.encoded if at.prev)
    # dropping one of them from the encoded tuples is caught
    builder = ModelBuilder(q, db, cs, Fraction(0), DistanceKind(PRED),
                           BuildOptions(relevancy_prune=True))
    builder.relevancy_prune()
    at = next(at for at in builder.encoded if at.prev is not None)
    builder.encoded.remove(at.prev)
    builder.gen_numeric_bound_exprs()
    builder.gen_categorical_vars()
    with pytest.raises(InternalConsistencyError, match=f"tuple {at.tid} has pruned"):
        builder.gen_selection_exprs()
