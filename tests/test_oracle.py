from fractions import Fraction

import pytest

from rankrefine import oracle
from rankrefine.annotate import annotate, filter_annotated
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.errors import PreconditionError
from rankrefine.oracle import (
    _selection,
    cat_candidates,
    exhaustive_solve,
    numeric_candidates,
    refinement_space,
    selections,
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


# over the domain [1, 3, 4] with the original 2, whose grid is 0, 1/2, 1, ..., 9/2, 5
_SELECTIONS = {
    ">=": {range(0, 3): 1, range(1, 3): 2, range(2, 3): Fraction(7, 2), range(3, 3): Fraction(9, 2)},
    ">": {range(0, 3): Fraction(1, 2), range(1, 3): 2, range(2, 3): 3, range(3, 3): 4},
    "<=": {range(0): Fraction(1, 2), range(1): 2, range(2): 3, range(3): 4},
    "<": {range(0): 1, range(1): 2, range(2): Fraction(7, 2), range(3): Fraction(9, 2)},
    "=": {range(0, 1): 1, range(1, 2): 3, range(2, 3): 4, range(0): 2},
}


@pytest.mark.parametrize("op", sorted(_SELECTIONS))
def test_selections_map_each_selection_to_its_closest_grid_candidate(op):
    domain = [1, 3, 4]
    got = selections(op, domain, Fraction(2))
    assert got == _SELECTIONS[op]
    assert all(type(c) in (int, Fraction) for c in got.values())  # exact, never float
    grid = numeric_candidates(domain, Fraction(2))
    for sel, c in got.items():
        # the constant makes its selection, and no grid candidate that makes
        # it is closer to the original
        assert _selection(op, domain, c) == sel
        assert all(abs(x - 2) >= abs(c - 2) for x in grid if _selection(op, domain, x) == sel)
    # every selection the grid makes has its constant
    assert {_selection(op, domain, x) for x in grid} == set(got)


@pytest.mark.parametrize("op", sorted(_SELECTIONS))
def test_selections_over_an_empty_domain(op):
    assert selections(op, [], Fraction(7)) == {range(0): Fraction(7)}


def test_selections_break_a_tie_towards_the_smaller_candidate():
    # 3/2 and 5/2 both select no value of the domain, and lie 1/2 from 2
    assert selections("=", [1, 2, 3], Fraction(2))[range(0)] == Fraction(3, 2)


@pytest.mark.parametrize("op", sorted(_SELECTIONS))
def test_the_original_constant_stands_for_its_own_selection(op):
    domain = [Fraction(1), Fraction(3), Fraction(4)]
    for original in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(3), Fraction(9)):
        got = selections(op, domain, original)
        assert got[_selection(op, domain, original)] == original, original


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
    # one constant per upper set of the GPA domain, the empty one included
    ((_, op), num_cands), = space.numeric
    (_, cat_cands), = space.categorical
    assert op == ">=" and len(num_cands) == gpa_n + 1
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
