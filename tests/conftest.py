import random
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.optimize._highspy import _core as highspy

from rankrefine.constraints import CardinalityConstraint, ConstraintSet, parse_constraints
from rankrefine.data import Database, Relation, Schema, load_csv
from rankrefine.query import Query, Refinement, parse_query

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = SCENARIOS / "data"


@pytest.fixture(scope="session")
def students_db() -> Database:
    db = Database()
    db.add(load_csv(DATA / "students.csv", name="Students"))
    db.add(load_csv(DATA / "activities.csv", name="Activities"))
    return db


@pytest.fixture(scope="session")
def scholarship_query() -> Query:
    return parse_query((SCENARIOS / "scholarship" / "query.sql").read_text())


@pytest.fixture(scope="session")
def scholarship_constraints() -> ConstraintSet:
    return parse_constraints((SCENARIOS / "scholarship" / "constraints.json").read_text())


@pytest.fixture(scope="session")
def no_perfect_db() -> Database:
    db = Database()
    db.add(load_csv(DATA / "no_perfect.csv", name="Jobs"))
    return db


@pytest.fixture(scope="session")
def no_perfect_query() -> Query:
    return parse_query((SCENARIOS / "no_perfect" / "query.sql").read_text())


@pytest.fixture(scope="session")
def no_perfect_constraints() -> ConstraintSet:
    return parse_constraints((SCENARIOS / "no_perfect" / "constraints.json").read_text())


# canonical refinements of the scholarship fixture, reused across suites
@pytest.fixture(scope="session")
def ref_prime() -> Refinement:  # Activity gains SO
    return Refinement(cat_values={"Activity": frozenset({"RB", "SO"})})


@pytest.fixture(scope="session")
def ref_double_prime() -> Refinement:  # GPA loosened, Activity gains GD
    return Refinement(numeric_constants={("GPA", ">="): Fraction("3.6")},
                      cat_values={"Activity": frozenset({"RB", "GD"})})


@pytest.fixture(scope="session")
def ref_triple_prime() -> Refinement:  # GPA loosened, Activity gains MO
    return Refinement(numeric_constants={("GPA", ">="): Fraction("3.6")},
                      cat_values={"Activity": frozenset({"RB", "MO"})})


def relation(name: str, schema: Schema, rows) -> Relation:
    """The relation ``name`` whose rows are the dicts ``rows``, in tuple-id
    order: row i has tuple id i + 1.  Every test relation is built here."""
    rows = list(rows)
    return Relation(name, schema, tuple(tuple(row[n] for row in rows) for n in schema.names))


def rows_of(rel: Relation) -> list[dict]:
    """``rel``'s rows as dicts, in tuple-id order."""
    return [dict(zip(rel.schema.names, row)) for row in zip(*rel.columns)]


def read_lp(path):
    """A silenced HiGHS holding the model read back from the LP file ``path``."""
    h = highspy._Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == highspy.HighsStatus.kOk
    return h


# ---------------------------------------------------------------------------
# random instance generation shared by the property and acceptance suites

CAT1 = ["a", "b", "c"]
CAT2 = ["x", "y"]
NUM_OPS = ["<", "<=", "=", ">", ">="]


def random_instance(rng: random.Random, max_rows: int = 16):
    """One relation, <= 2 categorical + 1 numeric predicate, <= 2 constraints.

    Built so that most instances keep at least k* tuples selected under some
    refinement, and roughly half the queries use DISTINCT.
    """
    n_rows = rng.randint(8, max_rows)
    rows = []
    for _ in range(n_rows):
        rows.append({
            "g": rng.choice(CAT1),
            "h": rng.choice(CAT2),
            "x": Fraction(rng.randint(0, 6)),
            "score": Fraction(rng.randint(0, 24)),  # ties on purpose
        })
    schema = Schema.from_pairs([("g", "categorical"), ("h", "categorical"),
                                ("x", "numerical"), ("score", "numerical")])
    db = Database()
    db.add(relation("T", schema, rows))

    num_preds = []
    if rng.random() < 0.8:
        from rankrefine.query import NumPredicate
        op = rng.choice(NUM_OPS)
        num_preds.append(NumPredicate("x", op, Fraction(rng.randint(1, 5))))
    cat_preds = []
    from rankrefine.query import CatPredicate
    if rng.random() < 0.9:
        size = rng.randint(1, len(CAT1))
        cat_preds.append(CatPredicate("g", frozenset(rng.sample(CAT1, size))))
    if rng.random() < 0.4:
        size = rng.randint(1, len(CAT2))
        cat_preds.append(CatPredicate("h", frozenset(rng.sample(CAT2, size))))

    distinct = rng.random() < 0.5
    select = ("g", "h") if distinct and rng.random() < 0.5 else ("*",)
    query = Query(
        tables=("T",),
        select_attrs=select,
        distinct=distinct,
        numeric_preds=tuple(num_preds),
        cat_preds=tuple(cat_preds),
        order_by=("score", rng.choice(["ASC", "DESC"])),
    )

    constraints = []
    n_constraints = rng.randint(1, 2)
    for _ in range(n_constraints):
        if rng.random() < 0.7:
            group = ((("g", rng.choice(CAT1))),)
        else:
            group = ((("h", rng.choice(CAT2))),)
        k = rng.randint(2, 5)
        n = rng.randint(1, k)
        sense = rng.choice(["lower", "upper"])
        constraints.append(CardinalityConstraint(group=tuple(group), k=k, n=n,
                                                 sense=sense))
    cs = ConstraintSet(tuple(constraints))
    epsilon = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    return query, db, cs, epsilon
