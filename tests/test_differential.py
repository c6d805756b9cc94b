"""Differential fuzzing: ``milp+opt`` against the ``naive+prov`` oracle over a
sequence of requests on one shared database, so that every request after
the first of its query runs on the instance the database keeps.

The inputs lean on what the shared instance and the dominance pruning must
get right: few DISTINCT keys over many rows, categorical predicate values
that occur in no row, two queries taking turns over the same relations.  A
seeded many-class roster checks the pruning where it drops most tuples.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankrefine.annotate import preparation
from rankrefine.constraints import CardinalityConstraint, ConstraintSet
from rankrefine.data import Database, Schema
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.engine import REFINED, RunConfig, run
from rankrefine.errors import PreconditionError
from rankrefine.query import NUM_OPS, CatPredicate, NumPredicate, Query, parse_query

from conftest import relation

TOL = 1e-6  # as in the acceptance suite

GROUPS = "abc"  # values of "g" in the data
ABSENT = "z"  # a predicate value no row holds

SCHEMA = Schema.from_pairs([("id", "numerical"), ("g", "categorical"),
                            ("x", "numerical"), ("score", "numerical")])


@st.composite
def relations(draw):
    """10-20 rows over at most 5 ids, so a DISTINCT id keeps few of them."""
    ids = draw(st.integers(1, 5))
    n = draw(st.integers(10, 20))
    rows = [{"id": Fraction(draw(st.integers(1, ids))),
             "g": draw(st.sampled_from(GROUPS)),
             "x": Fraction(draw(st.integers(0, 6))),
             "score": Fraction(draw(st.integers(0, 9)))}  # ties on purpose
            for _ in range(n)]
    return relation("T", SCHEMA, rows)


@st.composite
def queries(draw, distinct: bool):
    present = draw(st.sets(st.sampled_from(GROUPS), max_size=2))
    # the DISTINCT query always names a value absent from the data
    values = present | {ABSENT} if distinct or not present else present
    num = NumPredicate("x", draw(st.sampled_from(NUM_OPS)), Fraction(draw(st.integers(1, 5))))
    return Query(("T",), ("id",) if distinct else ("*",), distinct, (num,),
                 (CatPredicate("g", frozenset(values)),),
                 ("score", draw(st.sampled_from(["ASC", "DESC"]))))


@st.composite
def requests(draw):
    k = draw(st.integers(1, 3))
    constraints = ConstraintSet((CardinalityConstraint(
        (("g", draw(st.sampled_from(GROUPS))),), k, draw(st.integers(1, k)),
        draw(st.sampled_from(["lower", "upper"]))),))
    return (draw(st.integers(0, 1)), constraints,
            draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])),
            draw(st.sampled_from([PRED, JACCARD, KENDALL])))


def _answer(db, q, cs, eps, kind, engine):
    try:
        result = run(RunConfig(q, db, cs, eps, DistanceKind(kind), engine=engine))
    except PreconditionError as exc:  # e.g. outcome distance over too short a ranking
        return "rejected", str(exc), None
    return result.status, result.distance, result.refined_sql


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rel=relations(), qs=st.tuples(queries(True), queries(False)),
       reqs=st.lists(requests(), min_size=2, max_size=4))
def test_milp_matches_the_oracle_on_a_shared_database(rel, qs, reqs):
    db = Database()
    db.add(rel)
    for which, cs, eps, kind in reqs:
        q = qs[which]
        milp = _answer(db, q, cs, eps, kind, "milp+opt")
        oracle = _answer(db, q, cs, eps, kind, "naive+prov")
        assert milp[0] == oracle[0], (q, cs, eps, kind, milp, oracle)
        if oracle[0] == REFINED:
            assert abs(float(milp[1] - oracle[1])) <= TOL, (q, cs, eps, kind, milp, oracle)
        if oracle[:2] == (REFINED, 0):
            # distance 0 is the original query, which both engines report
            assert milp[2] == oracle[2], (q, cs, eps, kind, milp, oracle)
        assert db.last_prepared.query == q


def _roster(seed: int, rows: int = 600) -> Database:
    """A seeded roster with 144 lineage classes of ``Flights >= c AND Status
    = 'Active'`` over ``rows`` rows, each of 300 ids keeping one gender, men
    ranked higher on average."""
    rng = Random(seed)
    schema = Schema.from_pairs([("ID", "numerical"), ("Gender", "categorical"),
                                ("Status", "categorical"), ("Flights", "numerical"),
                                ("Hours", "numerical")])
    female = {i: rng.random() < 0.4 for i in range(1, 301)}
    out = []
    for _ in range(rows):
        i = rng.randint(1, 300)
        out.append({
            "ID": Fraction(i), "Gender": "F" if female[i] else "M",
            "Status": rng.choice(("Active", "Retired", "Management")),
            "Flights": Fraction(rng.randrange(50)),
            "Hours": Fraction(rng.randrange(10**6) + (0 if female[i] else 300_000))})
    db = Database()
    db.add(relation("Astronauts", schema, out))
    return db


@pytest.mark.parametrize("select", ["*", "DISTINCT ID, Gender"])
def test_many_classes_match_the_oracle(select):
    """Dominance pruning on a roster where the per-class rule, which keeps
    up to k* = 10 tuples of every lineage class, keeps most of them."""
    db = _roster(3)
    q = parse_query(f"SELECT {select} FROM Astronauts WHERE Flights >= 20 "
                    "AND Status = 'Active' ORDER BY Hours DESC")
    instance = preparation(q, db)
    assert len(instance.classes) >= 50
    assert sum(min(len(members), 10) for members in instance.classes) > len(instance) // 2
    for n, eps in [(4, Fraction(0)), (4, Fraction(1, 2)), (6, Fraction(0)),
                   (6, Fraction(1, 2))]:
        cs = ConstraintSet((CardinalityConstraint((("Gender", "F"),), 10, n, "lower"),))
        for kind in (PRED, JACCARD, KENDALL):
            configs = [RunConfig(q, db, cs, eps, DistanceKind(kind), engine=engine)
                       for engine in ("milp+opt", "naive+prov")]
            milp, oracle = map(run, configs)
            assert (milp.status, milp.distance) == (oracle.status, oracle.distance), \
                (select, n, eps, kind)
            assert milp.model_stats["encoded_tuples"] <= len(instance) // 4


TWO_NUMERIC = Schema.from_pairs([("id", "numerical"), ("g", "categorical"), ("x", "numerical"),
                                 ("y", "numerical"), ("score", "numerical")])


def _two_numeric_predicates(rng: Random) -> tuple[Database, Query]:
    """A seeded relation and a query with two numeric predicates: one-sided
    on ``x`` and on ``y``, or a two-sided pair ``x >= a AND x < b``, alone
    or with a one-sided predicate on ``y``.  Half the queries are DISTINCT."""
    rows = [{"id": rng.randint(1, 6), "g": rng.choice(GROUPS), "x": rng.randint(0, 4),
             "y": rng.randint(0, 4), "score": rng.randint(0, 12)}  # ties on purpose
            for _ in range(rng.randint(10, 24))]
    db = Database()
    db.add(relation("T", TWO_NUMERIC, rows))

    def one_sided(attr):
        return NumPredicate(attr, rng.choice((">=", ">", "<=", "<")), Fraction(rng.randint(1, 3)))

    shape = rng.choice(("one-sided", "pair", "pair+one-sided"))
    if shape == "one-sided":
        nums = (one_sided("x"), one_sided("y"))
    else:
        a = rng.randint(1, 3)
        nums = (NumPredicate("x", ">=", Fraction(a)),
                NumPredicate("x", "<", Fraction(rng.randint(a + 1, 4))))
        nums += (one_sided("y"),) if shape == "pair+one-sided" else ()
    distinct = rng.random() < 0.5
    q = Query(("T",), ("id",) if distinct else ("*",), distinct, nums,
              (CatPredicate("g", frozenset(rng.sample(GROUPS, rng.randint(1, 3)))),),
              ("score", rng.choice(["ASC", "DESC"])))
    return db, q


@pytest.mark.parametrize("seed", range(4))
def test_two_numeric_predicates_match_the_oracle(seed):
    """Both MILP engines against ``naive+prov`` where the dominance pruning
    falls back to equality on a second numeric attribute."""
    rng = Random(seed)
    for _ in range(16):
        db, q = _two_numeric_predicates(rng)
        k = rng.randint(1, 4)
        cs = ConstraintSet(tuple(CardinalityConstraint(
            (("g", g),), k, rng.randint(1, k), rng.choice(["lower", "upper"]))
            for g in rng.sample(GROUPS, rng.randint(1, 2))))
        eps = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        kind = rng.choice([PRED, JACCARD, KENDALL])
        oracle = _answer(db, q, cs, eps, kind, "naive+prov")
        for engine in ("milp+opt", "milp"):
            milp = _answer(db, q, cs, eps, kind, engine)
            assert milp[0] == oracle[0], (engine, q, cs, eps, kind, milp, oracle)
            if oracle[0] == REFINED:
                assert abs(float(milp[1] - oracle[1])) <= TOL, (engine, q, cs, eps, kind)
