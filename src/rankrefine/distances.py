"""Reference implementations of the three distance measures.

These are the oracle side of every dual-route check: the MILP objectives in
``milp.build`` must agree with the values computed here on the refinement
extracted from a solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .annotate import Ranking
from .errors import PreconditionError
from .query import Query

PRED = "pred"
JACCARD = "jaccard"
KENDALL = "kendall"


@dataclass(frozen=True)
class DistanceKind:
    name: str
    k: int | None = None  # outcome-based kinds only

    def __post_init__(self):
        if self.name not in (PRED, JACCARD, KENDALL):
            raise ValueError(f"unknown distance kind {self.name!r}")
        if self.name != PRED and self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")


def dis_pred(q: Query, q2: Query) -> Fraction:
    """Sum of normalized numeric constant shifts plus per-attribute Jaccard
    distances between categorical value sets.  ``q2`` must share ``q``'s
    predicate skeleton."""
    if len(q.numeric_preds) != len(q2.numeric_preds) or len(q.cat_preds) != len(q2.cat_preds):
        raise PreconditionError("queries do not share a predicate skeleton")
    total = Fraction(0)
    for p, p2 in zip(q.numeric_preds, q2.numeric_preds):
        if (p.attribute, p.op) != (p2.attribute, p2.op):
            raise PreconditionError("numeric predicate skeletons differ")
        if p.constant <= 0:
            raise PreconditionError(
                f"cannot normalize predicate distance: original constant for "
                f"{p.attribute!r} is {p.constant} (must be positive)"
            )
        total += abs(p.constant - p2.constant) / p.constant
    for p, p2 in zip(q.cat_preds, q2.cat_preds):
        if p.attribute != p2.attribute:
            raise PreconditionError("categorical predicate skeletons differ")
        inter = len(p.values & p2.values)
        union = len(p.values | p2.values)
        total += 1 - Fraction(inter, union)
    return total


def _topk(ranking: Ranking, k: int) -> list[int]:
    if len(ranking) < k:
        raise PreconditionError(f"ranking has {len(ranking)} tuples, need top-{k}")
    return ranking[:k]


def dis_jaccard(rank_q: Ranking, rank_q2: Ranking, k: int) -> Fraction:
    """Jaccard distance between the two top-k sets."""
    a, b = set(_topk(rank_q, k)), set(_topk(rank_q2, k))
    return 1 - Fraction(len(a & b), len(a | b))


def dis_kendall(rank_q: Ranking, rank_q2: Ranking, k: int) -> int:
    """Top-k rank distance for order-preserving pairs of rankings: the number
    of discordant pairs where (a) a tuple left the top-k although a retained
    tuple ranked below it stayed, (b) a tuple entered the top-k above a
    retained tuple, or (c) one tuple left while another entered.  Returned
    unnormalized (a raw pair count); any normalization is display-only."""
    top1, top2 = _topk(rank_q, k), _topk(rank_q2, k)
    set1, set2 = set(top1), set(top2)
    retained = set1 & set2
    pos1 = {tid: i for i, tid in enumerate(top1)}
    pos2 = {tid: i for i, tid in enumerate(top2)}
    departed = [t for t in top1 if t not in set2]
    entered = [t for t in top2 if t not in set1]
    total = 0
    for t in departed:
        total += sum(1 for t2 in retained if pos1[t2] > pos1[t])
    for t in entered:
        total += sum(1 for t2 in retained if pos2[t2] > pos2[t])
    total += len(departed) * len(entered)
    return total
