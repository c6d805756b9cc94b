"""Differential fuzzing: ``milp+opt`` against the ``naive+prov`` oracle over a
sequence of requests on one shared database, so that every request after
the first of its query runs on the instance the database keeps.

The inputs lean on what the shared instance and the dominance pruning must
get right: few DISTINCT keys over many rows, categorical predicate values
that occur in no row, two queries taking turns over the same relations.  A
seeded many-class roster checks the pruning where it drops most tuples.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankrefine.annotate import preparation
from rankrefine.constraints import CardinalityConstraint, ConstraintSet, deviation
from rankrefine.data import Database, Schema
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind, distance
from rankrefine.engine import REFINED, RunConfig, run
from rankrefine.errors import PreconditionError
from rankrefine.oracle import cat_candidates, exhaustive_solve, numeric_candidates
from rankrefine.query import (NUM_OPS, CatPredicate, NumPredicate, Query, Refinement,
                              apply_refinement, parse_query)

from conftest import random_instance, relation

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


def _two_numeric_request(rng: Random):
    """A ``_two_numeric_predicates`` instance with seeded constraints and epsilon."""
    db, q = _two_numeric_predicates(rng)
    k = rng.randint(1, 4)
    cs = ConstraintSet(tuple(CardinalityConstraint(
        (("g", g),), k, rng.randint(1, k), rng.choice(["lower", "upper"]))
        for g in rng.sample(GROUPS, rng.randint(1, 2))))
    return q, db, cs, rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])


@pytest.mark.parametrize("seed", range(4))
def test_two_numeric_predicates_match_the_oracle(seed):
    """Both MILP engines against ``naive+prov`` where the dominance pruning
    falls back to equality on a second numeric attribute."""
    rng = Random(seed)
    for _ in range(16):
        q, db, cs, eps = _two_numeric_request(rng)
        kind = rng.choice([PRED, JACCARD, KENDALL])
        oracle = _answer(db, q, cs, eps, kind, "naive+prov")
        for engine in ("milp+opt", "milp"):
            milp = _answer(db, q, cs, eps, kind, engine)
            assert milp[0] == oracle[0], (engine, q, cs, eps, kind, milp, oracle)
            if oracle[0] == REFINED:
                assert abs(float(milp[1] - oracle[1])) <= TOL, (engine, q, cs, eps, kind)


def _grid_scan(q, db, cs, eps, kind):
    """The least ``kind`` distance over every refinement built from the
    whole constant grid (``numeric_candidates``) and every value set, or
    None when no refinement is feasible: the exhaustive search without the
    map from selections to constants.

    Each candidate's satisfying tuples are a bit mask over the instance in
    base-rank order, and a refinement's ranking keeps the first tuple of each
    key among those every mask selects."""
    instance = preparation(q, db)
    k_star, tuples = cs.k_star, list(instance.annotated)

    def pool(pred, constants, refined):
        return [(c, sum(1 << i for i, at in enumerate(tuples)
                        if refined(pred, c).holds(at[pred.attribute])))
                for c in constants]

    pools = [pool(p, numeric_candidates(instance.domain(p.attribute), p.constant),
                  lambda p, c: NumPredicate(p.attribute, p.op, c)) for p in q.numeric_preds]
    pools += [pool(p, cat_candidates(instance.domain(p.attribute), p.values),
                   lambda p, c: CatPredicate(p.attribute, c)) for p in q.cat_preds]
    num_keys = [(p.attribute, p.op) for p in q.numeric_preds]
    cat_keys = [p.attribute for p in q.cat_preds]
    best = None
    for combo in product(*pools):
        mask = (1 << len(tuples)) - 1
        for _, m in combo:
            mask &= m
        ranking, keys = [], set()
        while mask and len(ranking) < k_star:
            at = tuples[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
            if at.key not in keys:
                keys.add(at.key)
                ranking.append(at.tid)
        if len(ranking) < k_star or deviation(ranking, instance.tuples_by_id, cs) > eps:
            continue
        constants = [c for c, _ in combo]
        q2 = apply_refinement(q, Refinement(dict(zip(num_keys, constants)),
                                            dict(zip(cat_keys, constants[len(num_keys):]))))
        dist = distance(kind, q, q2, instance.original_ranking, ranking, k_star)
        if best is None or dist < best:
            best = dist
    return best


@pytest.mark.parametrize("seed", range(100, 150))
def test_selections_find_the_optimum_of_the_constant_grid(seed):
    """The exhaustive search tries one constant per numeric selection; the
    whole grid it was drawn from finds the same status and exact distance,
    on a one-numeric and a two-numeric instance."""
    rng = Random(seed)
    one_numeric = random_instance(rng)
    for q, db, cs, eps in (one_numeric, _two_numeric_request(rng)):
        kind = rng.choice([PRED, JACCARD, KENDALL])
        if len(preparation(q, db).original_ranking) < cs.k_star:
            kind = PRED  # the outcome distances need k* original tuples
        kind = DistanceKind(kind)
        got = exhaustive_solve(q, db, cs, eps, kind)
        reference = _grid_scan(q, db, cs, eps, kind)
        assert (got.status == REFINED) == (reference is not None), (q, cs, eps, kind)
        assert got.distance == reference, (q, cs, eps, kind)
