"""Exhaustive refinement search, used both as a baseline engine and as the
ground truth the optimizer is tested against.

A numeric predicate's constant matters only through its selection, the set
of domain values it lets through: within one selection the ranking, and so
every outcome distance, is fixed, and the predicate distance is least at the
original constant or at the tightest boundary of the selection's interval.
A finite grid (domain values, half-gap offsets around them, the original
constant, and the two outside sentinels) holds those, and :func:`selections`,
which the MILP builder shares, maps each selection to its grid candidate
closest to the original.  Categorical predicates enumerate every non-empty
subset of the attribute's active domain; original values outside that
domain never filter anything and are always kept.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .annotate import Instance, evaluate, filter_annotated, preparation
from .constraints import ConstraintSet, deviation
from .data import Database
from .distances import DistanceKind, check_request, distance
from .errors import PreconditionError
from .query import Query, Refinement, apply_refinement

DEFAULT_CAP = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    status: str  # "refined" | "no_refinement"
    refinement: Refinement | None
    distance: Fraction | int | None
    candidates_checked: int


def numeric_candidates(values: list[Fraction], original: Fraction) -> list[Fraction]:
    if not values:
        return [original]
    gaps = [b - a for a, b in zip(values, values[1:])]
    delta = Fraction(min(gaps), 2) if gaps else Fraction(1, 2)  # exact on ints too
    cands = {original, values[0] - 1, values[-1] + 1}
    for v in values:
        cands.update((v - delta, v, v + delta))
    return sorted(cands)


def _selection(op: str, domain: list[Fraction], c: Fraction) -> range:
    """Positions of the ``domain`` values that satisfy ``value op c``."""
    if op == ">=":
        return range(bisect_left(domain, c), len(domain))
    if op == ">":
        return range(bisect_right(domain, c), len(domain))
    if op == "<=":
        return range(bisect_right(domain, c))
    if op == "<":
        return range(bisect_left(domain, c))
    i = bisect_left(domain, c)
    return range(i, i + 1) if domain[i:i + 1] == [c] else range(0)


def selections(op: str, domain: list[Fraction], original: Fraction) -> dict[range, Fraction]:
    """Each selection that ``value op c`` can make over the sorted ``domain``
    (positions in it) -> the grid candidate closest to ``original`` among
    those that make it; the smaller of two equally close candidates wins,
    and ``original`` stands for its own selection."""
    out: dict[range, Fraction] = {}
    for c in numeric_candidates(domain, original):  # ascending, so the smaller wins a tie
        sel = _selection(op, domain, c)
        if sel not in out or abs(c - original) < abs(out[sel] - original):
            out[sel] = c
    return out


def cat_candidates(values: list[str], original: frozenset[str]) -> list[frozenset[str]]:
    kept = original - set(values)
    out: list[frozenset[str]] = []
    for size in range(len(values) + 1):
        for combo in itertools.combinations(values, size):
            chosen = frozenset(combo) | kept
            if chosen:
                out.append(chosen)
    return out


@dataclass
class RefinementSpace:
    numeric: list[tuple[tuple[str, str], list[Fraction]]]
    categorical: list[tuple[str, list[frozenset[str]]]]

    @property
    def size(self) -> int:
        return math.prod(len(cands) for _, cands in self.numeric + self.categorical)

    def __iter__(self):
        num_keys = [key for key, _ in self.numeric]
        cat_keys = [attr for attr, _ in self.categorical]
        for combo in itertools.product(*(c for _, c in self.numeric + self.categorical)):
            yield Refinement(dict(zip(num_keys, combo)),
                             dict(zip(cat_keys, combo[len(num_keys):])))


def refinement_space(q: Query, d: Database, cap: int = DEFAULT_CAP,
                     instance: Instance | None = None) -> RefinementSpace:
    """Each numeric selection's constant times each categorical value set,
    over ``q``'s prepared instance in ``d`` (or the ``instance`` given)."""
    instance = preparation(q, d) if instance is None else instance
    numeric = [
        ((p.attribute, p.op),
         list(selections(p.op, instance.domain(p.attribute), p.constant).values()))
        for p in q.numeric_preds
    ]
    categorical = [
        (p.attribute, cat_candidates(instance.domain(p.attribute), p.values))
        for p in q.cat_preds
    ]
    space = RefinementSpace(numeric, categorical)
    if space.size > cap:
        raise PreconditionError(
            f"refinement space has {space.size} candidates, above the "
            f"exhaustive-search cap of {cap}")
    return space


def exhaustive_solve(
    q: Query,
    d: Database,
    constraints: ConstraintSet,
    epsilon: Fraction,
    kind: DistanceKind,
    use_provenance: bool = True,
    cap: int = DEFAULT_CAP,
    instance: Instance | None = None,
) -> OracleResult:
    """Scan the whole refinement space, one candidate per numeric selection
    and categorical value set; return the minimum-distance candidate whose
    top-k prefixes deviate from the constraints by at most epsilon.
    Distance ties go to the original query, then to the lexicographically
    smallest refinement.

    The space comes from ``q``'s prepared instance in ``d``, which a caller
    that holds it passes as ``instance``.  Candidates are filtered from it,
    up to the k* tuples that feasibility and distance read; without
    provenance every candidate is still evaluated from ``d``."""
    instance = preparation(q, d) if instance is None else instance
    k_star = constraints.k_star
    original_ranking = instance.original_ranking
    check_request(q, kind, epsilon, k_star, original_ranking)
    space = refinement_space(q, d, cap, instance)

    unchanged = Refinement.unchanged(q).encoding_key(q)
    best = None  # ((distance, differs, encoding_key), refinement)
    for ref in space:
        q2 = apply_refinement(q, ref)
        if use_provenance:
            ranking = filter_annotated(instance, q2, limit=k_star)
        else:
            ranking = evaluate(q2, d)
        if (len(ranking) < k_star
                or deviation(ranking, instance.tuples_by_id, constraints) > epsilon):
            continue
        dist = distance(kind, q, q2, original_ranking, ranking, k_star)
        ref_key = ref.encoding_key(q)
        key = (dist, ref_key != unchanged, ref_key)
        if best is None or key < best[0]:
            best = (key, ref)
    if best is None:
        return OracleResult("no_refinement", None, None, space.size)
    (dist, _, _), ref = best
    return OracleResult("refined", ref, dist, space.size)
