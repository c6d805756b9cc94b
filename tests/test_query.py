import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rankrefine.errors import QuerySyntaxError, UnsupportedQueryError
from rankrefine.query import (
    CatPredicate,
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
    parse_query,
    render_sql,
    satisfies,
)


def test_scholarship_query_parse(scholarship_query):
    q = scholarship_query
    assert q.tables == ("Students", "Activities")
    assert q.distinct
    assert q.select_attrs == ("ID", "Gender", "Income")
    assert q.numeric_preds == (NumPredicate("GPA", ">=", Fraction("3.7")),)
    assert q.cat_preds == (CatPredicate("Activity", frozenset({"RB"})),)
    assert q.order_by == ("SAT", "DESC")


def test_predicate_free_query():
    q = parse_query("SELECT * FROM T ORDER BY x DESC")
    assert q.numeric_preds == () and q.cat_preds == ()
    assert q.select_attrs == ("*",)


def test_or_across_attributes_unsupported():
    with pytest.raises(UnsupportedQueryError):
        parse_query("SELECT * FROM T WHERE a = 'u' OR b = 'v' ORDER BY x")


def test_nested_select_unsupported():
    with pytest.raises(UnsupportedQueryError):
        parse_query("SELECT * FROM (SELECT * FROM T) ORDER BY x")


def test_syntax_error_position():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT FROM T ORDER BY x")


def test_apply_refinement_example_two(scholarship_query, ref_prime):
    q2 = apply_refinement(scholarship_query, ref_prime)
    assert q2.cat_preds[0].values == frozenset({"RB", "SO"})
    assert q2.numeric_preds == scholarship_query.numeric_preds
    assert "Activity = 'RB' OR Activity = 'SO'" in render_sql(q2)


def test_apply_refinement_example_three(scholarship_query, ref_double_prime):
    q2 = apply_refinement(scholarship_query, ref_double_prime)
    assert q2.numeric_preds[0].constant == Fraction("3.6")
    assert q2.cat_preds[0].values == frozenset({"GD", "RB"})


def test_empty_refinement_is_identity(scholarship_query):
    assert apply_refinement(scholarship_query, Refinement()) == scholarship_query


def test_refinement_rejects_unknown_targets(scholarship_query):
    with pytest.raises(KeyError):
        apply_refinement(scholarship_query,
                         Refinement(numeric_constants={("SAT", ">"): Fraction(1)}))


def test_render_without_predicates_has_no_where():
    q = parse_query("SELECT * FROM T ORDER BY x ASC")
    assert "WHERE" not in render_sql(q)


def _random_query(rng: random.Random) -> Query:
    num = []
    if rng.random() < 0.7:
        num.append(NumPredicate("x", rng.choice(["<", "<=", "=", ">", ">="]),
                                Fraction(rng.randint(-5, 50), rng.randint(1, 4))))
    cat = []
    if rng.random() < 0.7:
        values = frozenset(rng.sample(["a b", "c'd", "e", "f"], rng.randint(1, 3)))
        cat.append(CatPredicate("g", values))
    return Query(
        tables=tuple(rng.sample(["T", "U", "V"], rng.randint(1, 2))),
        select_attrs=("*",) if rng.random() < 0.5 else ("g", "x"),
        distinct=rng.random() < 0.5,
        numeric_preds=tuple(num),
        cat_preds=tuple(cat),
        order_by=("score", rng.choice(["ASC", "DESC"])),
    )


def test_render_parse_round_trip_100_random_queries():
    rng = random.Random(7)
    for _ in range(100):
        q = _random_query(rng)
        assert parse_query(render_sql(q)) == q


def _reference_apply_refinement(q: Query, r: Refinement) -> Query:
    """The rebuild-everything form: every predicate and the query itself
    made anew by ``dataclasses.replace``, field by field."""
    new_nums = tuple(
        replace(p, constant=r.numeric_constants.get((p.attribute, p.op), p.constant))
        for p in q.numeric_preds
    )
    new_cats = tuple(
        replace(p, values=frozenset(r.cat_values.get(p.attribute, p.values)))
        for p in q.cat_preds
    )
    return replace(q, numeric_preds=new_nums, cat_preds=new_cats)


CAT_VALUES = ["a b", "c'd", "e", "f"]


def _random_refinable_query(rng: random.Random) -> Query:
    """Up to two numeric and two categorical predicates, constants any sign."""
    num = [NumPredicate(attr, op, Fraction(rng.randint(-5, 50), rng.randint(1, 4)))
           for attr, op in rng.sample([("x", ">="), ("x", "<"), ("y", ">")], rng.randint(0, 2))]
    cat = [CatPredicate(attr, frozenset(rng.sample(CAT_VALUES, rng.randint(1, 3))))
           for attr in rng.sample(["g", "h"], rng.randint(0, 2))]
    return Query(("T",), ("*",), False, tuple(num), tuple(cat), ("score", "DESC"))


def _random_refinement(rng: random.Random, q: Query) -> Refinement:
    """Each predicate left unmapped, mapped to its own constant or value set,
    to an equal but distinct one, or to a random one (sometimes equal too)."""
    nums, cats = {}, {}
    for p in q.numeric_preds:
        c = p.constant
        choice = rng.randrange(4)
        if choice:
            nums[(p.attribute, p.op)] = (
                c, Fraction(2 * c.numerator, 2 * c.denominator),
                Fraction(rng.randint(-5, 50), rng.randint(1, 4)))[choice - 1]
    for p in q.cat_preds:
        choice = rng.randrange(4)
        if choice:
            cats[p.attribute] = (p.values, frozenset(set(p.values)),
                                 frozenset(rng.sample(CAT_VALUES, rng.randint(1, 3))))[choice - 1]
    return Refinement(numeric_constants=nums, cat_values=cats)


def test_apply_refinement_matches_the_rebuilt_query_on_random_refinements():
    rng = random.Random(11)
    kept = 0
    for _ in range(500):
        q = _random_refinable_query(rng)
        r = _random_refinement(rng, q)
        want = _reference_apply_refinement(q, r)
        got = apply_refinement(q, r)
        assert got == want and render_sql(got) == render_sql(want)
        # ``q`` itself exactly when the refinement changes no predicate
        assert (got is q) == (want == q)
        kept += got is q
    assert 50 < kept < 450


def test_satisfies_fixture_tuples(students_db, scholarship_query):
    from rankrefine.annotate import annotate
    by_student = {}
    for at in annotate(scholarship_query, students_db):
        by_student.setdefault((at["ID"], at["Activity"]), at)
    t6 = by_student[(Fraction(6), "SO")]
    t7 = by_student[(Fraction(7), "RB")]
    assert not satisfies(t6, scholarship_query)
    assert satisfies(t7, scholarship_query)
    free = parse_query("SELECT * FROM Students ORDER BY SAT DESC")
    assert satisfies(t6, free)


def test_duplicate_numeric_predicate_rejected():
    with pytest.raises(UnsupportedQueryError):
        Query(("T",), ("*",), False,
              (NumPredicate("x", ">", Fraction(1)), NumPredicate("x", ">", Fraction(2))),
              (), ("s", "ASC"))
