import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rankrefine.annotate import annotate, evaluate
from rankrefine.constraints import (
    LOWER,
    UPPER,
    CardinalityConstraint,
    ConstraintSet,
    deviation,
    memberships,
    parse_constraints,
)
from rankrefine.data import CATEGORICAL, NUMERICAL, Schema
from rankrefine.errors import ConstraintValidationError, PreconditionError
from rankrefine.query import apply_refinement


def _tuples_by_id(db, q):
    return {a.tid: a for a in annotate(q, db)}


def test_original_query_deviation(students_db, scholarship_query,
                                  scholarship_constraints):
    # top-6 holds two female awardees against a floor of three (shortfall 1/3)
    # and top-3 holds two high-income awardees against a ceiling of one
    # (excess 1/1), so the mean deviation is (1/3 + 1)/2 = 2/3
    ranking = evaluate(scholarship_query, students_db)
    by_id = _tuples_by_id(students_db, scholarship_query)
    assert deviation(ranking, by_id, scholarship_constraints) == Fraction(2, 3)


def test_refined_query_deviation_zero(students_db, scholarship_query,
                                      scholarship_constraints, ref_prime):
    q2 = apply_refinement(scholarship_query, ref_prime)
    ranking = evaluate(q2, students_db)
    by_id = _tuples_by_id(students_db, scholarship_query)
    assert deviation(ranking, by_id, scholarship_constraints) == 0


def test_single_constraint_deviation_third(students_db, scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 6, 3, LOWER),))
    ranking = evaluate(scholarship_query, students_db)
    by_id = _tuples_by_id(students_db, scholarship_query)
    assert deviation(ranking, by_id, cs) == Fraction(1, 3)


def test_upper_bound_already_met_is_zero(students_db, scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 6, 6, UPPER),))
    ranking = evaluate(scholarship_query, students_db)
    by_id = _tuples_by_id(students_db, scholarship_query)
    assert deviation(ranking, by_id, cs) == 0


def test_conjunctive_group(students_db, scholarship_query):
    cs = ConstraintSet((CardinalityConstraint(
        (("Gender", "F"), ("Income", "High")), 6, 1, LOWER),))
    ranking = evaluate(scholarship_query, students_db)
    by_id = _tuples_by_id(students_db, scholarship_query)
    # student 8 is the sole female high-income awardee in the top six
    assert deviation(ranking, by_id, cs) == 0


def test_short_ranking_rejected(students_db, scholarship_query):
    cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 6, 3, LOWER),))
    by_id = _tuples_by_id(students_db, scholarship_query)
    with pytest.raises(PreconditionError):
        deviation([], by_id, cs)


def test_parse_constraints_example():
    text = json.dumps([
        {"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3},
        {"group": {"Income": "High"}, "k": 3, "sense": "upper", "n": 1},
    ])
    cs = parse_constraints(text)
    assert cs.k_star == 6
    first, second = cs.constraints
    assert first.group == (("Gender", "F"),)
    assert first.sense == LOWER and first.sign == 1
    assert second.sense == UPPER and second.sign == -1
    assert first.label() == "lb[Gender=F,k=6]=3"
    assert second.label() == "ub[Income=High,k=3]=1"


@pytest.mark.parametrize("bad", [
    [{"group": {"G": "F"}, "k": 4, "sense": "lower", "n": 0}],
    [{"group": {"G": "F"}, "k": 4, "sense": "lower", "n": 5}],
    [{"group": {"G": "F"}, "k": 0, "sense": "lower", "n": 1}],
    [{"group": {}, "k": 4, "sense": "lower", "n": 1}],
    [{"group": {"G": "F"}, "k": 4, "sense": "between", "n": 1}],
    [{"k": 4, "sense": "lower", "n": 1}],
    [],
    # k and n are whole numbers, group values strings or numbers
    *([{"group": {"G": "F"}, "k": 4, "sense": "lower", "n": 2, field: value}]
      for field, value in [("k", 5.9), ("k", True), ("n", 1.5), ("n", False), ("n", "1.5"),
                           ("k", None), ("group", {"G": None}), ("group", {"G": ["F"]}),
                           ("group", {"G": True})]),
])
def test_parse_rejects_invalid(bad):
    with pytest.raises(ConstraintValidationError):
        parse_constraints(json.dumps(bad))


def test_parse_reads_integral_numbers_and_text():
    cs = parse_constraints(json.dumps([
        {"group": {"G": "F", "H": 3, "X": 2.5}, "k": 4.0, "sense": "lower", "n": "2"}]))
    (c,) = cs.constraints
    assert (c.group, c.k, c.n) == ((("G", "F"), ("H", "3"), ("X", "2.5")), 4, 2)
    assert type(c.k) is int and type(c.n) is int


def test_parse_rejects_malformed_json():
    with pytest.raises(ConstraintValidationError):
        parse_constraints("not json")


def test_k_star_is_max_k():
    cs = ConstraintSet((
        CardinalityConstraint((("g", "a"),), 3, 1, LOWER),
        CardinalityConstraint((("g", "b"),), 7, 2, UPPER),
        CardinalityConstraint((("h", "x"),), 5, 5, LOWER),
    ))
    assert cs.k_star == 7
    assert len(cs) == 3


def test_k_star_is_set_once_and_left_out_of_equality_hashing_and_repr():
    a = CardinalityConstraint((("g", "a"),), 3, 1, LOWER)
    b = CardinalityConstraint((("g", "b"),), 7, 2, UPPER)
    cs = ConstraintSet((a, b))
    assert vars(cs)["k_star"] == 7
    with pytest.raises(FrozenInstanceError):
        cs.k_star = 3
    assert cs == ConstraintSet((a, b)) and cs != ConstraintSet((b, a))
    assert hash(cs) == hash((cs.constraints,))
    assert repr(cs) == f"ConstraintSet(constraints={cs.constraints!r})"


def test_labels_and_hash_are_set_once_and_left_out_of_equality_hashing_and_repr():
    a = CardinalityConstraint((("g", "a"),), 3, 1, LOWER)
    b = CardinalityConstraint((("g", "b"),), 7, 2, UPPER)
    cs = ConstraintSet((a, b))
    assert vars(cs)["labels"] == (a.label(), b.label()) == ("lb[g=a,k=3]=1", "ub[g=b,k=7]=2")
    assert vars(cs)["_hash"] == hash(cs) == hash((cs.constraints,))
    for name in ("labels", "_hash"):
        with pytest.raises(FrozenInstanceError):
            setattr(cs, name, None)
    other = ConstraintSet((a, b))
    object.__setattr__(other, "labels", ())
    assert other == cs and hash(other) == hash(cs)
    assert cs != ConstraintSet((b, a)) and hash(cs) != hash(ConstraintSet((b, a)))
    assert repr(cs) == f"ConstraintSet(constraints={cs.constraints!r})"


def test_labels_are_those_of_the_set_over_a_schema():
    schema = Schema((("g", CATEGORICAL), ("x", NUMERICAL)))
    text = ConstraintSet((CardinalityConstraint((("g", "a"),), 3, 1, LOWER),
                          CardinalityConstraint((("x", "2.50"),), 4, 1, UPPER)))
    parsed = text.over(schema)
    assert [c.group for c in parsed][1] == (("x", Fraction(5, 2)),)
    assert text.labels == ("lb[g=a,k=3]=1", "ub[x=2.50,k=4]=1")
    assert parsed.labels == tuple(c.label() for c in parsed) == ("lb[g=a,k=3]=1",
                                                                 "ub[x=2.5,k=4]=1")


def test_over_returns_the_set_itself_when_no_group_value_changes():
    schema = Schema((("g", CATEGORICAL), ("x", NUMERICAL)))
    categorical = ConstraintSet((CardinalityConstraint((("g", "a"),), 3, 1, LOWER),))
    numbers = ConstraintSet((CardinalityConstraint((("x", Fraction(2)),), 3, 1, LOWER),))
    assert categorical.over(schema) is categorical and numbers.over(schema) is numbers
    text = ConstraintSet((categorical.constraints[0],
                          CardinalityConstraint((("x", "2"),), 4, 1, UPPER)))
    parsed = text.over(schema)
    assert parsed is not text and parsed.k_star == 4
    assert [c.group for c in parsed] == [(("g", "a"),), (("x", Fraction(2)),)]
    assert parsed.over(schema) is parsed


def _reference_deviation(ranking, by_id, cs):
    """Each constraint's prefix counted on its own, the mean a sum of Fractions."""
    total = Fraction(0)
    for c in cs:
        count = sum(1 for tid in ranking[: c.k] if c.contains(by_id[tid]))
        total += Fraction(max(c.sign * (c.n - count), 0), c.n)
    return total / len(cs)


def test_deviation_matches_the_per_prefix_count_on_random_constraint_sets(
        students_db, scholarship_query):
    by_id = _tuples_by_id(students_db, scholarship_query)
    full = evaluate(scholarship_query, students_db)
    groups = [(("Gender", "F"),), (("Gender", "M"),), (("Income", "High"),),
              (("Gender", "F"), ("Income", "Low"))]
    rng = random.Random(5)
    for _ in range(300):
        cons = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, len(full))
            cons.append(CardinalityConstraint(rng.choice(groups), k, rng.randint(1, k),
                                              rng.choice([LOWER, UPPER])))
        cs = ConstraintSet(tuple(cons))
        ranking = rng.sample(full, rng.randint(cs.k_star, len(full)))
        want = _reference_deviation(ranking, by_id, cs)
        members = memberships(ranking, by_id, cs)
        assert [len(inside) for inside in members] == [cs.k_star] * len(cs)
        for got in (deviation(ranking, by_id, cs), deviation(ranking, by_id, cs, members)):
            assert got == want and type(got) is Fraction


@given(data=st.data())
def test_deviation_bounds_property(students_db, scholarship_query, data):
    by_id = _tuples_by_id(students_db, scholarship_query)
    full = evaluate(scholarship_query, students_db)
    n_cons = data.draw(st.integers(min_value=1, max_value=3))
    cons = []
    for _ in range(n_cons):
        attr, value = data.draw(st.sampled_from(
            [("Gender", "F"), ("Gender", "M"), ("Income", "High"), ("Income", "Low")]))
        k = data.draw(st.integers(min_value=1, max_value=len(full)))
        n = data.draw(st.integers(min_value=1, max_value=k))
        sense = data.draw(st.sampled_from([LOWER, UPPER]))
        cons.append(CardinalityConstraint(((attr, value),), k, n, sense))
    cs = ConstraintSet(tuple(cons))
    dev = deviation(full, by_id, cs)
    # shortfall is capped at n, excess at k - n, so per-constraint terms are
    # bounded by 1 and (k - n)/n respectively
    cap = max((1 if c.sense == LOWER else Fraction(c.k - c.n, c.n)) for c in cons)
    assert 0 <= dev <= cap
    if dev == 0:
        for c in cons:
            got = sum(1 for t in full[:c.k] if c.contains(by_id[t]))
            if c.sense == LOWER:
                assert got >= c.n
            else:
                assert got <= c.n
