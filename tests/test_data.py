import csv
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rankrefine.annotate import AnnotatedTuple, annotate
from rankrefine.data import (
    Database,
    Schema,
    format_number,
    load_csv,
    natural_join,
    parse_number,
    read_sidecar,
)
from rankrefine.errors import JoinError, KindMismatchError, LoadError
from rankrefine.query import parse_query

from conftest import DATA, relation, rows_of


def test_students_load(students_db):
    students = students_db.get("Students")
    assert len(students) == 14
    assert students.column("GPA")[0] == Fraction("3.7")
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


def test_an_empty_cell_makes_an_inferred_column_categorical(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,,x\n,,y\n")
    rel = load_csv(p)
    assert rel.schema.attributes == (
        ("a", "categorical"), ("b", "categorical"), ("c", "categorical"))
    assert rel.column("a") == ("1", "")
    assert rel.column("b") == ("", "")


def test_an_empty_cell_in_a_numerical_sidecar_column_is_an_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,x\n,y\n")
    with pytest.raises(LoadError, match=r"cell '' at \(row 2, 'a'\) is not numeric"):
        load_csv(p, {"a": "numerical"})


def test_the_first_bad_cell_in_file_order_is_reported(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,x\ny,4\n")
    with pytest.raises(LoadError, match=r"cell 'x' at \(row 2, 'b'\)"):
        load_csv(p, {"a": "numerical", "b": "numerical"})


def _load_cells(path, cells, kinds=None):
    """``cells`` as one row of a CSV file, one column each."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(len(cells))])
        writer.writerow(cells)
    return load_csv(path, kinds)


def _exact(cell):
    try:
        return Fraction(cell.strip())
    except (ValueError, ZeroDivisionError):
        return None


PINNED_CELLS = ["1_000", "１２", "\xa012\xa0", "1e3", ".5", "12.", "٣.٥", "1/0", " 1 / 3"]


@given(st.lists(st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.from_regex(r"\s?[-+]?[0-9٣１]{0,3}[._]?[0-9]{0,2}([eE/][-+]?[0-9]{1,2})?\s?",
                  fullmatch=True),
    st.integers().map(str),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
), min_size=1, max_size=6))
@example(PINNED_CELLS)
def test_each_cell_reads_as_fraction_of_its_stripped_text(tmp_path_factory, cells):
    path = tmp_path_factory.mktemp("cells") / "t.csv"
    rel = _load_cells(path, cells)
    for cell, (value,) in zip(cells, rel.columns):
        exact = _exact(cell)
        assert value == (cell if exact is None else exact)
        # an integral number is an int, however it is spelled
        kind = str if exact is None else int if exact.denominator == 1 else Fraction
        assert type(value) is kind
    numerical = {f"c{j}": "numerical" for j in range(len(cells))}
    if all(_exact(c) is not None for c in cells):
        assert _load_cells(path, cells, numerical).columns == rel.columns
    else:
        with pytest.raises(LoadError, match="is not numeric"):
            _load_cells(path, cells, numerical)


@pytest.mark.parametrize("cell", ["1/0", " 1 / 3"])
def test_cells_fraction_rejects_are_categorical_or_errors(tmp_path, cell):
    rel = _load_cells(tmp_path / "t.csv", [cell])
    assert rel.schema.kind_of("c0") == "categorical" and rel.column("c0") == (cell,)
    with pytest.raises(LoadError, match=r"at \(row 1, 'c0'\) is not numeric"):
        _load_cells(tmp_path / "t.csv", [cell], {"c0": "numerical"})


def test_sidecar_schema_overrides_inference(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a\n1\n2\n")
    side = tmp_path / "t.schema.json"
    side.write_text('{"a": "categorical"}')
    rel = load_csv(p, read_sidecar(side))
    assert rel.column("a") == ("1", "2")


def test_sidecar_keeps_inferred_kinds_of_unlisted_columns(tmp_path):
    side = tmp_path / "students.schema.json"
    side.write_text('{"ID": "categorical", "Gender": "categorical"}')
    rel = load_csv(DATA / "students.csv", read_sidecar(side))
    assert rel.schema.attributes == (
        ("ID", "categorical"), ("Gender", "categorical"),
        ("Income", "categorical"), ("GPA", "numerical"), ("SAT", "numerical"))
    assert rel.column("ID")[0] == "1" and rel.column("GPA")[0] == Fraction("3.7")


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
    four = [row for row in rows_of(joined) if row["ID"] == 4]
    assert sorted(t["Activity"] for t in four) == ["RB", "TU"]


def test_join_with_empty_right(students_db):
    students = students_db.get("Students")
    empty = relation("E", students_db.get("Activities").schema, [])
    assert len(natural_join(students, empty)) == 0


def test_self_join_on_key_preserves_rows(students_db):
    students = students_db.get("Students")
    assert len(natural_join(students, students)) == len(students)


def test_join_kind_mismatch():
    a = relation("A", Schema.from_pairs([("k", "numerical")]), [{"k": 1}])
    b = relation("B", Schema.from_pairs([("k", "categorical")]), [{"k": "1"}])
    with pytest.raises((JoinError, KindMismatchError)):
        natural_join(a, b)


def _nested_loop_join(left, right):
    """The row-wise natural join: every left row, in order, with each
    right row that agrees on the shared attributes, in order."""
    shared = [n for n in left.schema.names if right.schema.has(n)]
    return [{**lt, **rt} for lt in rows_of(left) for rt in rows_of(right)
            if all(lt[n] == rt[n] for n in shared)]


def _relation(tmp_path, name, text):
    p = tmp_path / f"{name}.csv"
    p.write_text(text)
    return load_csv(p)


@pytest.mark.parametrize("left, right, rows", [
    ("k,a\n2,x\n3,y\n", "k,b\n2.0,p\n3.5,q\n", 1),             # 2 joins 2.0
    ("k,a\n3/2,x\n1/3,y\n3,z\n", "k,b\n1.5,p\n0.33,q\n", 1),  # 3/2 joins 1.5
    ("k,m,a\n1,u,x\n1,v,y\n2,u,z\n", "m,k,b\nu,1.0,p\nv,2,q\nu,2,r\n", 2),  # two shared
    ("k,a\nRB,x\nGD,y\n2,z\n", "k,b\nRB,p\n2,q\n02,r\n", 2),   # string keys
    ("k,a\n1,x\n1,y\n2,z\n", "k,b\n1,p\n1.0,q\n2,r\n", 5),     # duplicates on both sides
])
def test_join_matches_a_nested_loop_join(tmp_path, left, right, rows):
    lrel, rrel = _relation(tmp_path, "L", left), _relation(tmp_path, "R", right)
    joined = natural_join(lrel, rrel)
    assert len(joined) == rows
    # row i of a relation has tuple id i + 1, so equal row lists have equal tids
    assert rows_of(joined) == _nested_loop_join(lrel, rrel)
    assert joined.schema.names == lrel.schema.names + tuple(
        n for n in rrel.schema.names if not lrel.schema.has(n))


_KINDS = {"k": "numerical", "m": "categorical", "a": "numerical", "b": "categorical"}
_CELLS = {"k": st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(7, 3), Fraction(-5, 2)]),
          "m": st.sampled_from("uv"), "a": st.integers(-3, 3), "b": st.sampled_from("xy")}


def _random_relation(draw, name, attrs):
    rows = draw(st.lists(st.fixed_dictionaries({n: _CELLS[n] for n in attrs}), max_size=10))
    return relation(name, Schema.from_pairs((n, _KINDS[n]) for n in attrs), rows)


@given(st.data())
def test_join_matches_a_row_wise_join_on_random_tables(data):
    left = _random_relation(data.draw, "L", ["k", "m", "a"])
    right_attrs = data.draw(st.sampled_from([["b", "k"], ["m", "b", "k"], ["m", "b"]]))
    right = _random_relation(data.draw, "R", right_attrs)
    assert rows_of(natural_join(left, right)) == _nested_loop_join(left, right)


def test_only_ranking_builds_tuples(monkeypatch):
    """Loading and joining keep columns; ``annotate`` makes one
    ``AnnotatedTuple`` per joined row it ranks, and every one reads its
    cells from the one mapping of the joined columns."""
    built = []
    init = AnnotatedTuple.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AnnotatedTuple, "__init__", counted)
    db = Database()
    db.add(load_csv(DATA / "students.csv", name="Students"))
    db.add(load_csv(DATA / "activities.csv", name="Activities"))
    joined = natural_join(db.get("Students"), db.get("Activities"))
    assert built == []
    q = parse_query("SELECT * FROM Students NATURAL JOIN Activities ORDER BY SAT DESC")
    instance = annotate(q, db)
    assert len(built) == len(joined) == len(instance) == 14
    assert built == list(instance) and len({id(at.cells) for at in built}) == 1
    assert all(at[a] == joined.column(a)[at.tid - 1]
               for at in built for a in joined.schema.names)


def test_a_mixed_numeric_column_loads_exactly(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(f"v,s\n3,1\n3.0,2\n7/2,3\n{10**30 + 1},4\n")
    rel = load_csv(p, name="T")
    assert rel.column("v") == (3, 3, Fraction(7, 2), 10**30 + 1)
    assert [type(v) for v in rel.column("v")] == [int, int, Fraction, int]
    db = Database()
    db.add(rel)
    instance = annotate(parse_query("SELECT * FROM T WHERE v >= 3 ORDER BY s DESC"), db)
    assert instance.domain("v") == [3, Fraction(7, 2), 10**30 + 1]


def test_a_byte_order_mark_is_no_part_of_the_first_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\ufeffID,v\n1,2\n", encoding="utf-8")
    assert load_csv(p).schema.names == ("ID", "v")


def test_a_sidecar_may_start_with_a_byte_order_mark(tmp_path):
    side = tmp_path / "s.json"
    side.write_text('\ufeff{"a": "categorical"}', encoding="utf-8")
    assert read_sidecar(side) == {"a": "categorical"}


def test_cross_kind_comparison_is_an_error():
    """A predicate of the other kind than its attribute is caught when the
    query is prepared, against the schema: no cell need be read."""
    schema = Schema.from_pairs([("x", "numerical"), ("c", "categorical")])
    db = Database()
    db.add(relation("T", schema, []))
    for where, message in (("x = 'one'", "categorical predicate on 'x' applied to a number"),
                           ("c >= 1", "attribute 'c' is not numeric")):
        with pytest.raises(KindMismatchError, match=f"^{message}$"):
            annotate(parse_query(f"SELECT * FROM T WHERE {where} ORDER BY x"), db)


def test_a_schema_looks_names_up_in_a_map_it_sets_once():
    pairs = (("b", "numerical"), ("a", "categorical"))
    schema = Schema(pairs)
    assert schema.names == ("b", "a")
    assert (schema.has("a"), schema.has("z")) == (True, False)
    assert (schema.kind_of("b"), schema.kind_of("a")) == ("numerical", "categorical")
    with pytest.raises(KeyError):
        schema.kind_of("z")
    with pytest.raises(LoadError, match=r"^duplicate attribute names in schema: \['a', 'a'\]$"):
        Schema((("a", "numerical"), ("a", "categorical")))
    same = Schema.from_pairs(pairs)
    assert same == schema and hash(same) == hash(schema)
    assert same != Schema(pairs[::-1])
    assert repr(schema) == f"Schema(attributes={pairs!r})"


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
