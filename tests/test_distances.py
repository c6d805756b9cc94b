import itertools
import random
from fractions import Fraction

import pytest

from rankrefine.annotate import evaluate
from rankrefine.distances import (
    DistanceKind,
    dis_jaccard,
    dis_kendall,
    dis_pred,
)
from rankrefine.errors import PreconditionError
from rankrefine.query import NumPredicate, Query, apply_refinement
from test_query import _random_refinable_query, _random_refinement, _reference_apply_refinement


def test_pred_distance_activity_widening(students_db, scholarship_query, ref_prime):
    q2 = apply_refinement(scholarship_query, ref_prime)
    # GPA untouched, Activity {RB} -> {RB, SO}: Jaccard distance 1/2
    assert dis_pred(scholarship_query, q2) == Fraction(1, 2)


def test_pred_distance_gpa_and_activity(students_db, scholarship_query,
                                        ref_double_prime):
    q2 = apply_refinement(scholarship_query, ref_double_prime)
    # |3.7 - 3.6|/3.7 for the constant shift, 1/2 for {RB} vs {RB, GD}
    assert dis_pred(scholarship_query, q2) == \
        Fraction("0.1") / Fraction("3.7") + Fraction(1, 2)


def test_pred_distance_identity(scholarship_query):
    assert dis_pred(scholarship_query, scholarship_query) == 0


def _reference_dis_pred(q: Query, q2: Query) -> Fraction:
    """The predicate distance with every predicate's term added, zero or not."""
    total = Fraction(0)
    for p, p2 in zip(q.numeric_preds, q2.numeric_preds):
        if p.constant <= 0:
            raise PreconditionError("non-positive original constant")
        total += abs(p.constant - p2.constant) / p.constant
    for p, p2 in zip(q.cat_preds, q2.cat_preds):
        total += 1 - Fraction(len(p.values & p2.values), len(p.values | p2.values))
    return total


def test_pred_distance_matches_the_every_term_sum_on_random_refinements():
    rng = random.Random(13)
    zero = 0
    for _ in range(500):
        q = _random_refinable_query(rng)
        q2 = _reference_apply_refinement(q, _random_refinement(rng, q))
        try:
            want = _reference_dis_pred(q, q2)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                dis_pred(q, q2)
            continue
        got = dis_pred(q, q2)
        assert got == want and type(got) is type(want) is Fraction
        zero += got == 0
    assert zero > 20


def test_pred_distance_requires_positive_constant():
    q = Query(tables=("T",), select_attrs=("*",), distinct=False,
              numeric_preds=(NumPredicate("x", ">=", Fraction(0)),),
              cat_preds=(), order_by=("x", "DESC"))
    with pytest.raises(PreconditionError):
        dis_pred(q, q)


def test_pred_distance_requires_same_skeleton(scholarship_query):
    q2 = Query(tables=scholarship_query.tables,
               select_attrs=scholarship_query.select_attrs,
               distinct=scholarship_query.distinct,
               numeric_preds=(),
               cat_preds=scholarship_query.cat_preds,
               order_by=scholarship_query.order_by)
    with pytest.raises(PreconditionError):
        dis_pred(scholarship_query, q2)


def test_jaccard_running_example(students_db, scholarship_query, ref_prime):
    r1 = evaluate(scholarship_query, students_db)
    r2 = evaluate(apply_refinement(scholarship_query, ref_prime), students_db)
    # top-3 of Q is {4, 7, 8}; top-3 of the widened query is {1, 2, 4};
    # overlap 1 of 5
    assert dis_jaccard(r1, r2, 3) == Fraction(4, 5)


def test_jaccard_double_prime(students_db, scholarship_query, ref_double_prime):
    r1 = evaluate(scholarship_query, students_db)
    r2 = evaluate(apply_refinement(scholarship_query, ref_double_prime), students_db)
    assert dis_jaccard(r1, r2, 3) == Fraction(1, 2)


def test_jaccard_identity_and_disjoint():
    assert dis_jaccard([1, 2, 3], [1, 2, 3], 3) == 0
    assert dis_jaccard([1, 2, 3], [4, 5, 6], 3) == 1
    assert dis_jaccard([1, 2, 3, 4], [3, 9, 8, 1], 2) == 1


def test_jaccard_requires_k_tuples():
    with pytest.raises(PreconditionError):
        dis_jaccard([1, 2], [1, 2, 3], 3)


def test_kendall_double_prime(students_db, scholarship_query, ref_double_prime):
    r1 = evaluate(scholarship_query, students_db)
    r2 = evaluate(apply_refinement(scholarship_query, ref_double_prime), students_db)
    assert dis_kendall(r1, r2, 3) == 3


def test_kendall_triple_prime(students_db, scholarship_query, ref_triple_prime):
    r1 = evaluate(scholarship_query, students_db)
    r2 = evaluate(apply_refinement(scholarship_query, ref_triple_prime), students_db)
    assert dis_kendall(r1, r2, 3) == 2


def test_kendall_identity():
    assert dis_kendall([1, 2, 3], [1, 2, 3], 3) == 0


def test_kendall_full_replacement():
    assert dis_kendall([1, 2, 3], [4, 5, 6], 3) == 9


def test_kendall_simple_swap_in():
    # 3 leaves, 9 enters above 2: one departure pair (3 above nothing
    # retained below it... compute explicitly)
    assert dis_kendall([1, 2, 3], [1, 9, 2], 3) == \
        _kendall_oracle([1, 2, 3], [1, 9, 2], 3)


def _kendall_oracle(rank1, rank2, k):
    """Independent pair-by-pair count over order-preserving top-k lists.

    A pair of distinct tuples is discordant when their relative order is
    determined in both lists (membership or position) and disagrees.  Because
    both lists are prefixes of rankings of the same database filtered two
    ways, and every retained tuple keeps its relative order, the discordant
    pairs are exactly: departed-vs-retained where the retained tuple was
    below, entrant-vs-retained where the retained tuple is below, and
    departed-vs-entrant.
    """
    top1, top2 = rank1[:k], rank2[:k]
    s1, s2 = set(top1), set(top2)
    universe = sorted(s1 | s2)
    total = 0
    for a, b in itertools.combinations(universe, 2):
        in1 = {t: top1.index(t) for t in (a, b) if t in s1}
        in2 = {t: top2.index(t) for t in (a, b) if t in s2}

        def order(positions):
            if a in positions and b in positions:
                return -1 if positions[a] < positions[b] else 1
            if a in positions:
                return -1  # member ranks above non-member
            if b in positions:
                return 1
            return 0

        o1, o2 = order(in1), order(in2)
        if o1 and o2 and o1 != o2:
            total += 1
    return total


def test_kendall_matches_pair_oracle_on_random_rankings():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(4, 10)
        k = rng.randint(1, n)
        universe = list(range(n))
        base = sorted(universe, key=lambda _: rng.random())
        # order-preserving second ranking: random subset, original order kept
        keep = [t for t in base if rng.random() < 0.6]
        extra = [t for t in base if t not in keep]
        if len(keep) < k:
            keep = base
        rank2 = keep
        if len(rank2) < k:
            continue
        got = dis_kendall(base, rank2, k)
        want = _kendall_oracle(base, rank2, k)
        assert got == want, (base, rank2, k)


def test_distance_kind_validation():
    with pytest.raises(ValueError):
        DistanceKind("spearman")
