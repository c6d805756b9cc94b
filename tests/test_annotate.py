import itertools
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rankrefine.annotate import (
    annotate,
    evaluate,
    filter_annotated,
)
from rankrefine.cli import EXIT_INVALID, main
from rankrefine.data import Database, Schema, load_csv, read_sidecar
from rankrefine.engine import ENGINES
from rankrefine.errors import KindMismatchError
from rankrefine.query import (
    NUM_OPS,
    CatPredicate,
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
    parse_query,
)

from conftest import relation


def _students_of(db, q, ranking):
    ann = annotate(q, db)
    by = {a.tid: a for a in ann}
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
    t6 = next(a for a in ann if a["ID"] == Fraction(6))
    same_values = [a for a in ann
                   if (a["Activity"], a["GPA"]) == ("SO", Fraction("3.7"))]
    assert list(ann.classes[t6.lineage_class]) == same_values


def test_cells_are_left_out_of_equality_hashing_and_repr(students_db, scholarship_query):
    at = annotate(scholarship_query, students_db).annotated[0]
    alone = replace(at, cells={})
    assert alone == at and hash(alone) == hash(at) and repr(alone) == repr(at)
    assert "cells" not in repr(at)


def test_shadow_of_duplicate_student_four(students_db, scholarship_query):
    ann = annotate(scholarship_query, students_db)
    fours = sorted((a for a in ann if a["ID"] == Fraction(4)),
                   key=lambda a: a.base_rank)
    first, second = fours
    assert first.prev is None
    assert second.prev is first


def test_no_distinct_no_shadows(students_db):
    from rankrefine.query import parse_query
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities "
                    "WHERE GPA >= 3.7 AND Activity = 'RB' ORDER BY SAT DESC")
    assert all(a.prev is None and a.key == a.tid for a in annotate(q, students_db))


def test_lineage_class_of_student_14(students_db, scholarship_query):
    ann = annotate(scholarship_query, students_db)
    t14 = next(a for a in ann if a["ID"] == Fraction(14))
    classmates = [a for a in ann if a.lineage_class == t14.lineage_class]
    assert sorted(int(a["ID"]) for a in classmates) == [7, 10, 14]


def test_filter_agrees_with_evaluate(students_db, scholarship_query,
                                     ref_prime, ref_double_prime, ref_triple_prime):
    ann = annotate(scholarship_query, students_db)
    from rankrefine.query import Refinement
    for ref in (Refinement(), ref_prime, ref_double_prime, ref_triple_prime):
        q2 = apply_refinement(scholarship_query, ref)
        assert filter_annotated(ann, q2) == evaluate(q2, students_db)


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
    """Relation T(v, x, c) with many ties."""
    draw = VALUE_FAMILIES[family]
    rows = [{"v": draw(rng), "x": draw(rng), "c": rng.choice("ab")} for _ in range(n)]
    schema = Schema.from_pairs([("v", "numerical"), ("x", "numerical"),
                                ("c", "categorical")])
    db = Database()
    db.add(relation("T", schema, rows))
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
    values = db.get("T").column("v")
    tids = range(1, len(values) + 1)
    want = sorted(tids, key=lambda tid: (sign * values[tid - 1], tid))
    assert len(set(values)) < len(values), "the family should produce ties"
    instance = annotate(q, db)
    assert [at.tid for at in instance] == want
    assert [at.base_rank for at in instance] == list(tids)
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
    xs = sorted(set(db.get("T").column("x")))
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
                    assert filter_annotated(instance, q2) == \
                        evaluate(q2, db), (op, direction, constant, values)


@pytest.mark.parametrize("where", ["x = 'a'", "c >= 1"])
def test_a_predicate_on_a_column_of_the_other_kind_is_an_error(tmp_path, where, capsys):
    """``x`` is numerical and ``c`` categorical.  The check is made against
    the schema, so a relation of no rows fails alike, and the CLI reports
    invalid input under every engine."""
    message = {"x = 'a'": "categorical predicate on 'x' applied to a number",
               "c >= 1": "attribute 'c' is not numeric"}[where]
    side = tmp_path / "T.schema.json"
    side.write_text('{"c": "categorical"}')
    (tmp_path / "q.sql").write_text(f"SELECT * FROM T WHERE {where} ORDER BY s DESC")
    (tmp_path / "cs.json").write_text(
        '[{"group": {"c": "a"}, "k": 1, "sense": "lower", "n": 1}]')
    for body in ("1,a,1\n2,b,2\n", ""):
        p = tmp_path / "T.csv"
        p.write_text("x,c,s\n" + body)
        db = Database()
        db.add(load_csv(p, read_sidecar(side)))
        q = parse_query((tmp_path / "q.sql").read_text())
        with pytest.raises(KindMismatchError, match=f"^{message}$"):
            evaluate(q, db)
        with pytest.raises(KindMismatchError, match=f"^{message}$"):
            annotate(q, db)
        for engine in ENGINES:
            assert main(["run", "--data", f"T={p}", "--schema", f"T={side}",
                         "--query", str(tmp_path / "q.sql"),
                         "--constraints", str(tmp_path / "cs.json"),
                         "--engine", engine]) == EXIT_INVALID, (body, engine)
            assert capsys.readouterr() == ("", f"error: {message}\n")
