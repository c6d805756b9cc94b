"""Exhaustive refinement search, used both as a baseline engine and as the
ground truth the optimizer is tested against.

Numeric predicates have finitely many behaviours over a fixed database, and
within one behaviour the distance-minimal constant is either the original
constant or the tightest boundary of the behaviour's feasible interval, so a
finite candidate grid (domain values, half-gap offsets around them, the
original constant, and the two outside sentinels) is complete.  Categorical
predicates enumerate every non-empty subset of the attribute's active domain;
original values outside that domain never filter anything and are always
kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .annotate import cat_domain, evaluate, filter_annotated, numeric_domain, prepared
from .constraints import ConstraintSet, deviation
from .data import Database
from .distances import JACCARD, KENDALL, PRED, DistanceKind, dis_jaccard, dis_kendall, dis_pred
from .errors import PreconditionError
from .query import Query, Refinement, apply_refinement

DEFAULT_CAP = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    status: str  # "refined" | "no_refinement"
    refinement: Refinement | None
    query: Query | None
    distance: Fraction | int | None
    ranking: list[int] | None
    candidates_checked: int


def _half_gap(values: list[Fraction]) -> Fraction:
    gaps = [b - a for a, b in zip(values, values[1:])]
    return min(gaps) / 2 if gaps else Fraction(1, 2)


def numeric_candidates(values: list[Fraction], original: Fraction) -> list[Fraction]:
    if not values:
        return [original]
    delta = _half_gap(values)
    cands = {original, values[0] - 1, values[-1] + 1}
    for v in values:
        cands.update((v - delta, v, v + delta))
    return sorted(cands)


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
    query: Query
    numeric: list[tuple[tuple[str, str], list[Fraction]]]
    categorical: list[tuple[str, list[frozenset[str]]]]

    @property
    def size(self) -> int:
        n = 1
        for _, cands in self.numeric:
            n *= len(cands)
        for _, cands in self.categorical:
            n *= len(cands)
        return n

    def __iter__(self):
        num_keys = [key for key, _ in self.numeric]
        cat_keys = [attr for attr, _ in self.categorical]
        pools = [c for _, c in self.numeric] + [c for _, c in self.categorical]
        for combo in itertools.product(*pools):
            yield Refinement(
                numeric_constants=dict(zip(num_keys, combo[: len(num_keys)])),
                cat_values=dict(zip(cat_keys, combo[len(num_keys):])),
            )


def refinement_space(q: Query, d: Database, cap: int = DEFAULT_CAP) -> RefinementSpace:
    instance = prepared(q, d)
    numeric = [
        ((p.attribute, p.op),
         numeric_candidates(numeric_domain(instance, p.attribute), p.constant))
        for p in q.numeric_preds
    ]
    categorical = [
        (p.attribute, cat_candidates(cat_domain(instance, p.attribute), p.values))
        for p in q.cat_preds
    ]
    space = RefinementSpace(q, numeric, categorical)
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
) -> OracleResult:
    """Scan the whole refinement space; return the minimum-distance candidate
    whose top-k prefixes deviate from the constraints by at most epsilon.
    Distance ties go to the original query, then to the lexicographically
    smallest refinement.

    Candidates are filtered from ``q``'s prepared instance in ``d``; without
    provenance every candidate is still evaluated from ``d``."""
    instance = prepared(q, d)
    space = refinement_space(q, d, cap)
    k_star = constraints.k_star
    original_ranking = instance.original_ranking
    if kind.name in (JACCARD, KENDALL) and len(original_ranking) < k_star:
        raise PreconditionError(
            "outcome distances need the original query to return at least "
            f"k*={k_star} tuples, got {len(original_ranking)}")

    unchanged = Refinement.unchanged(q).encoding_key(q)
    best = None  # ((distance, differs, encoding_key), refinement, query, ranking)
    checked = 0
    for ref in space:
        checked += 1
        q2 = apply_refinement(q, ref)
        if use_provenance:
            ranking = filter_annotated(instance, q2, instance.key_attrs)
        else:
            ranking = evaluate(q2, d)
        if len(ranking) < k_star:
            continue
        if deviation(ranking, instance.tuples_by_id, constraints) > epsilon:
            continue
        if kind.name == PRED:
            dist = dis_pred(q, q2)
        elif kind.name == JACCARD:
            dist = dis_jaccard(original_ranking, ranking, k_star)
        else:
            dist = dis_kendall(original_ranking, ranking, k_star)
        ref_key = ref.encoding_key(q)
        key = (dist, ref_key != unchanged, ref_key)
        if best is None or key < best[0]:
            best = (key, ref, q2, ranking)
    if best is None:
        return OracleResult("no_refinement", None, None, None, None, checked)
    (dist, _, _), ref, q2, ranking = best
    return OracleResult("refined", ref, q2, dist, ranking, checked)
