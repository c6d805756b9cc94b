"""Differential fuzzing: ``milp+opt`` against the ``naive+prov`` oracle over a
sequence of requests on one shared database, so that every request after
the first of its query runs on the instance the database keeps.

The inputs lean on what the shared instance and the per-class pruning must
get right: few DISTINCT keys over many rows, categorical predicate values
that occur in no row, two queries taking turns over the same relations.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankrefine.constraints import CardinalityConstraint, ConstraintSet
from rankrefine.data import Database, Relation, Schema, Tuple
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.engine import REFINED, RunConfig, run
from rankrefine.errors import PreconditionError
from rankrefine.query import NUM_OPS, CatPredicate, NumPredicate, Query

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
    rows = tuple(
        Tuple(tid, {"id": Fraction(draw(st.integers(1, ids))),
                    "g": draw(st.sampled_from(GROUPS)),
                    "x": Fraction(draw(st.integers(0, 6))),
                    "score": Fraction(draw(st.integers(0, 9)))})  # ties on purpose
        for tid in range(1, n + 1))
    return Relation("T", SCHEMA, rows)


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
        result = run(RunConfig(q, db, cs, eps, DistanceKind(kind, cs.k_star), engine=engine))
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
        assert db.last_prepared[1].query == q
