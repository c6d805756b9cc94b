from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankrefine.data import (
    Database,
    Relation,
    Schema,
    Tuple,
    format_number,
    infer_schema,
    load_csv,
    natural_join,
    parse_number,
    read_sidecar,
)
from rankrefine.errors import JoinError, KindMismatchError, LoadError

from conftest import DATA


def test_students_load(students_db):
    students = students_db.get("Students")
    assert len(students) == 14
    assert students.rows[0]["GPA"] == Fraction("3.7")
    assert students.schema.kind_of("Gender") == "categorical"
    assert students.schema.kind_of("SAT") == "numerical"


def test_empty_file_with_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b\n")
    rel = load_csv(p)
    assert len(rel) == 0
    assert rel.schema.names == ("a", "b")


def test_bad_numeric_cell_reports_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("GPA\n3.5\nabc\n")
    with pytest.raises(LoadError) as exc:
        load_csv(p, {"GPA": "numerical"})
    assert "GPA" in str(exc.value)
    assert "2" in str(exc.value)


def test_schema_inference_mixed_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,x\n2,3\n")
    rel = load_csv(p)
    assert rel.schema.kind_of("a") == "numerical"
    assert rel.schema.kind_of("b") == "categorical"


def test_sidecar_schema_overrides_inference(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a\n1\n2\n")
    side = tmp_path / "t.schema.json"
    side.write_text('{"a": "categorical"}')
    rel = load_csv(p, read_sidecar(side))
    assert rel.rows[0]["a"] == "1"


def test_sidecar_keeps_inferred_kinds_of_unlisted_columns(tmp_path):
    side = tmp_path / "students.schema.json"
    side.write_text('{"ID": "categorical", "Gender": "categorical"}')
    rel = load_csv(DATA / "students.csv", read_sidecar(side))
    assert rel.schema.attributes == (
        ("ID", "categorical"), ("Gender", "categorical"),
        ("Income", "categorical"), ("GPA", "numerical"), ("SAT", "numerical"))
    assert rel.rows[0]["ID"] == "1" and rel.rows[0]["GPA"] == Fraction("3.7")


def test_sidecar_column_missing_from_csv(tmp_path):
    side = tmp_path / "s.json"
    side.write_text('{"ID": "numerical", "Grade": "numerical"}')
    with pytest.raises(LoadError, match=r"\['Grade'\].*JSON object"):
        load_csv(DATA / "students.csv", read_sidecar(side))


@pytest.mark.parametrize("text", [
    '[{"name": "ID", "kind": "numerical"}]',  # not an object
    '{"ID": "integer"}',                     # unknown kind
    '"numerical"',
])
def test_sidecar_of_the_wrong_form(tmp_path, text):
    side = tmp_path / "s.json"
    side.write_text(text)
    with pytest.raises(LoadError, match="JSON object mapping CSV columns"):
        read_sidecar(side)


def test_join_duplicates_student_four(students_db):
    joined = natural_join(students_db.get("Students"), students_db.get("Activities"))
    assert len(joined) == 14
    four = [t for t in joined.rows if t["ID"] == Fraction(4)]
    assert sorted(t["Activity"] for t in four) == ["RB", "TU"]


def test_join_with_empty_right(students_db):
    students = students_db.get("Students")
    empty = Relation("E", students_db.get("Activities").schema, ())
    assert len(natural_join(students, empty)) == 0


def test_self_join_on_key_preserves_rows(students_db):
    students = students_db.get("Students")
    assert len(natural_join(students, students)) == len(students)


def test_join_kind_mismatch():
    a = Relation("A", Schema.from_pairs([("k", "numerical")]),
                 (Tuple(1, {"k": Fraction(1)}),))
    b = Relation("B", Schema.from_pairs([("k", "categorical")]),
                 (Tuple(1, {"k": "1"}),))
    with pytest.raises((JoinError, KindMismatchError)):
        natural_join(a, b)


def test_cross_kind_comparison_is_an_error():
    with pytest.raises(KindMismatchError):
        from rankrefine.data import compare_kinds
        compare_kinds(Fraction(1), "one")


@given(st.fractions())
def test_number_format_parse_round_trip(x):
    assert parse_number(format_number(x)) == x


def test_format_number_prefers_decimals():
    assert format_number(Fraction("3.7")) == "3.7"
    assert format_number(Fraction(1, 2)) == "0.5"
    assert format_number(Fraction(1, 3)) == "1/3"


def test_duplicate_relation_name_replaced(students_db):
    db = Database()
    db.add(students_db.get("Students"))
    db.add(students_db.get("Students"))
    assert len(db.get("Students")) == 14
