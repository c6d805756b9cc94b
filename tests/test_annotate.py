import itertools
import operator
import random
from fractions import Fraction

import pytest

from rankrefine.annotate import (
    annotate,
    distinct_key_attrs,
    evaluate,
    filter_annotated,
    joined_relation,
)
from rankrefine.data import Database, Relation, Schema, Tuple
from rankrefine.query import (
    NUM_OPS,
    CatPredicate,
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
)


def _students_of(db, q, ranking):
    ann = annotate(q, db)
    by = {a.tuple.tid: a.tuple for a in ann}
    return [int(by[t]["ID"]) for t in ranking]


def test_scholarship_ranking(students_db, scholarship_query):
    ranking = evaluate(scholarship_query, students_db)
    # the scholarship fixture awards the top-6; student 14 also
    # qualifies and trails the list
    assert _students_of(students_db, scholarship_query, ranking) == \
        [4, 7, 8, 10, 11, 12, 14]


def test_example_two_top_six(students_db, scholarship_query, ref_prime):
    q2 = apply_refinement(scholarship_query, ref_prime)
    ranking = evaluate(q2, students_db)
    assert _students_of(students_db, scholarship_query, ranking)[:6] == \
        [1, 2, 4, 6, 7, 8]


def test_match_nothing_gives_empty_ranking(students_db, scholarship_query, ref_prime):
    from rankrefine.query import Refinement
    q2 = apply_refinement(scholarship_query,
                          Refinement(numeric_constants={("GPA", ">="): Fraction(99)}))
    assert evaluate(q2, students_db) == []


def test_annotation_basics(students_db, scholarship_query):
    ann = annotate(scholarship_query, students_db)
    assert len(ann) == 14
    assert sorted(a.base_rank for a in ann) == list(range(1, 15))
    # student 6's lineage class: exactly the tuples with Activity SO, GPA 3.7
    t6 = next(a for a in ann if a.tuple["ID"] == Fraction(6))
    same_values = [a for a in ann
                   if (a.tuple["Activity"], a.tuple["GPA"]) == ("SO", Fraction("3.7"))]
    assert list(ann.classes[t6.lineage_class]) == same_values


def test_shadow_of_duplicate_student_four(students_db, scholarship_query):
    ann = annotate(scholarship_query, students_db)
    fours = sorted((a for a in ann if a.tuple["ID"] == Fraction(4)),
                   key=lambda a: a.base_rank)
    first, second = fours
    assert first.shadow == ()
    assert second.shadow == (first.tuple.tid,)


def test_no_distinct_no_shadows(students_db):
    from rankrefine.query import parse_query
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                    "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    assert all(a.shadow == () for a in annotate(q, students_db))


def test_lineage_class_of_student_14(students_db, scholarship_query):
    ann = annotate(scholarship_query, students_db)
    t14 = next(a for a in ann if a.tuple["ID"] == Fraction(14))
    classmates = [a for a in ann if a.lineage_class == t14.lineage_class]
    assert sorted(int(a.tuple["ID"]) for a in classmates) == [7, 10, 14]


def test_filter_agrees_with_evaluate(students_db, scholarship_query,
                                     ref_prime, ref_double_prime, ref_triple_prime):
    ann = annotate(scholarship_query, students_db)
    rel = joined_relation(scholarship_query, students_db)
    ka = distinct_key_attrs(rel, scholarship_query)
    from rankrefine.query import Refinement
    for ref in (Refinement(), ref_prime, ref_double_prime, ref_triple_prime):
        q2 = apply_refinement(scholarship_query, ref)
        assert filter_annotated(ann, q2, ka) == evaluate(q2, students_db)


# -- exact ranking and predicate tests on hard magnitudes ---------------------

_REFERENCE_OPS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
                  ">": operator.gt, ">=": operator.ge}


def _near(base, gap):
    # a dozen values on a grid of `gap`, so that some repeat
    return lambda rng: base + gap * rng.randint(0, 12)


VALUE_FAMILIES = {
    "1e12-step-0.1": _near(Fraction(10**12), Fraction(1, 10)),
    "1e6-step-0.001": _near(Fraction(10**6), Fraction(1, 1000)),
    "negative": _near(Fraction(-10**6), Fraction(1, 1000)),
    # gaps below float resolution: a float key would tie these values
    "1e17-step-1": _near(Fraction(10**17), Fraction(1)),
    "third-plus-1e-20": _near(Fraction(1, 3), Fraction(1, 10**20)),
    "thirds-and-sevenths": lambda rng: Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7))),
    "mixed": lambda rng: rng.choice((
        Fraction(10**12) + Fraction(rng.randint(0, 3), 10),
        -Fraction(10**6) - Fraction(rng.randint(0, 3), 1000),
        Fraction(rng.randint(-3, 3), 3),
        Fraction(0),
    )),
}


def _table(family, rng, n=40):
    """Relation T(v, x, c) with rows in shuffled tid order and many ties."""
    draw = VALUE_FAMILIES[family]
    tids = list(range(1, n + 1))
    rng.shuffle(tids)
    rows = tuple(Tuple(tid, {"v": draw(rng), "x": draw(rng), "c": rng.choice("ab")})
                 for tid in tids)
    schema = Schema.from_pairs([("v", "numerical"), ("x", "numerical"),
                                ("c", "categorical")])
    db = Database()
    db.add(Relation("T", schema, rows))
    return db


def _query(direction, num_preds=(), cat_preds=(), distinct=False, select=("*",)):
    return Query(tables=("T",), select_attrs=select, distinct=distinct,
                 numeric_preds=tuple(num_preds), cat_preds=tuple(cat_preds),
                 order_by=("v", direction))


@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_rank_matches_fraction_reference(family, direction):
    rng = random.Random(f"{family}-{direction}")
    db = _table(family, rng)
    q = _query(direction)
    sign = -1 if direction == "DESC" else 1
    rows = db.get("T").rows
    want = [t.tid for t in sorted(rows, key=lambda t: (sign * t["v"], t.tid))]
    assert len({t["v"] for t in rows}) < len(rows), "the family should produce ties"
    instance = annotate(q, db)
    assert [at.tuple.tid for at in instance] == want
    assert [at.base_rank for at in instance] == list(range(1, len(rows) + 1))
    assert evaluate(q, db) == want
    assert instance.original_ranking == tuple(want)


@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
def test_holds_every_operator_at_and_around_the_constant(family):
    rng = random.Random(family)
    draw = VALUE_FAMILIES[family]
    for _ in range(10):
        constant = draw(rng)
        for gap in (Fraction(1, 10), Fraction(1, 10**20)):
            for value, op in itertools.product((constant - gap, constant, constant + gap),
                                               NUM_OPS):
                got = NumPredicate("x", op, constant).holds(value)
                assert got == _REFERENCE_OPS[op](value, constant), (op, value, constant)


@pytest.mark.parametrize("family", sorted(VALUE_FAMILIES))
@pytest.mark.parametrize("distinct", [False, True])
def test_filter_matches_evaluate_on_hard_magnitudes(family, distinct):
    rng = random.Random(f"{family}-filter-{distinct}")
    db = _table(family, rng)
    xs = sorted({t["x"] for t in db.get("T").rows})
    for op in NUM_OPS:
        for direction in ("ASC", "DESC"):
            base = _query(direction, [NumPredicate("x", op, xs[0])],
                          [CatPredicate("c", frozenset("a"))],
                          distinct=distinct, select=("c",) if distinct else ("*",))
            instance = annotate(base, db)
            for constant in (xs[0], xs[len(xs) // 2], xs[-1]):
                for values in (frozenset("a"), frozenset("ab")):
                    q2 = apply_refinement(base, Refinement(
                        numeric_constants={("x", op): constant},
                        cat_values={"c": values}))
                    assert filter_annotated(instance, q2, instance.key_attrs) == \
                        evaluate(q2, db), (op, direction, constant, values)
