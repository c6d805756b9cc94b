from fractions import Fraction

import pytest

from rankrefine import oracle
from rankrefine.annotate import annotate, filter_annotated
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.errors import PreconditionError
from rankrefine.oracle import (
    cat_candidates,
    exhaustive_solve,
    numeric_candidates,
    refinement_space,
)


def test_numeric_candidates_cover_boundaries():
    values = [Fraction(1), Fraction(3), Fraction(4)]
    cands = numeric_candidates(values, Fraction(2))
    # every domain value, its half-gap neighbours, the untouched original,
    # and sentinels strictly outside the domain
    assert Fraction(2) in cands
    assert Fraction(0) in cands and Fraction(5) in cands
    for v in values:
        assert v in cands
        assert v - Fraction(1, 2) in cands
        assert v + Fraction(1, 2) in cands
    assert cands == sorted(cands)


def test_numeric_candidates_empty_domain():
    assert numeric_candidates([], Fraction(7)) == [Fraction(7)]


def test_numeric_candidates_over_an_int_domain_are_exact():
    cands = numeric_candidates([1, 3, 4], Fraction(2))
    assert cands == [0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3,
                     Fraction(7, 2), 4, Fraction(9, 2), 5]
    assert all(type(c) in (int, Fraction) for c in cands)


def test_cat_candidates_keep_out_of_domain_originals():
    cands = cat_candidates(["a", "b"], frozenset({"b", "z"}))
    assert all("z" in c for c in cands)
    assert frozenset({"z"}) in cands          # empty in-domain pick allowed
    assert frozenset({"a", "b", "z"}) in cands
    assert len(cands) == 4                    # all subsets of {a, b}


def test_cat_candidates_exclude_empty_set():
    cands = cat_candidates(["a", "b"], frozenset({"a"}))
    assert frozenset() not in cands
    assert len(cands) == 3


def test_space_size_formula(students_db, scholarship_query):
    space = refinement_space(scholarship_query, students_db)
    ann = annotate(scholarship_query, students_db)
    gpa_n = len(ann.domain("GPA"))
    # 3 per distinct value plus original plus 2 sentinels, minus overlaps
    (_, num_cands), = space.numeric
    (_, cat_cands), = space.categorical
    assert len(num_cands) <= 3 * gpa_n + 3
    assert space.size == len(num_cands) * len(cat_cands)
    assert sum(1 for _ in space) == space.size


def test_space_cap_enforced(students_db, scholarship_query):
    with pytest.raises(PreconditionError):
        refinement_space(scholarship_query, students_db, cap=3)


def test_running_example_pred(students_db, scholarship_query,
                              scholarship_constraints):
    got = exhaustive_solve(scholarship_query, students_db,
                           scholarship_constraints, Fraction(0),
                           DistanceKind(PRED))
    assert got.status == "refined"
    assert got.distance == Fraction(1, 2)
    assert got.refinement.numeric_constants[("GPA", ">=")] == Fraction("3.7")
    assert got.refinement.cat_values["Activity"] == frozenset({"RB", "SO"})


def test_running_example_outcome_distances(students_db, scholarship_query,
                                           scholarship_constraints):
    jac = exhaustive_solve(scholarship_query, students_db,
                           scholarship_constraints, Fraction(0),
                           DistanceKind(JACCARD))
    ken = exhaustive_solve(scholarship_query, students_db,
                           scholarship_constraints, Fraction(0),
                           DistanceKind(KENDALL))
    assert jac.status == ken.status == "refined"
    assert jac.distance == Fraction(2, 7)
    assert ken.distance == 5


def test_no_perfect_refinement(no_perfect_db, no_perfect_query,
                               no_perfect_constraints):
    got = exhaustive_solve(no_perfect_query, no_perfect_db,
                           no_perfect_constraints, Fraction(0),
                           DistanceKind(PRED))
    assert got.status == "no_refinement"
    assert got.refinement is None
    assert got.candidates_checked > 0


def test_provenance_matches_reevaluation(monkeypatch, students_db, scholarship_query,
                                         scholarship_constraints):
    limits = []

    def recording_filter(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return filter_annotated(*args, **kwargs)

    monkeypatch.setattr(oracle, "filter_annotated", recording_filter)
    for kind in (DistanceKind(PRED), DistanceKind(JACCARD), DistanceKind(KENDALL)):
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1)):
            fast = exhaustive_solve(scholarship_query, students_db,
                                    scholarship_constraints, eps,
                                    kind, use_provenance=True)
            slow = exhaustive_solve(scholarship_query, students_db,
                                    scholarship_constraints, eps,
                                    kind, use_provenance=False)
            assert fast.status == slow.status
            assert fast.distance == slow.distance
            assert fast.refinement == slow.refinement
    # each candidate is decided by its first k* tuples, so no filter reads further
    assert limits and set(limits) == {scholarship_constraints.k_star}


def test_loose_budget_returns_identity(students_db, scholarship_query,
                                       scholarship_constraints):
    got = exhaustive_solve(scholarship_query, students_db,
                           scholarship_constraints, Fraction(1),
                           DistanceKind(PRED))
    assert got.status == "refined"
    assert got.distance == 0
