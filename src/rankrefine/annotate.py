"""The prepared instance: one query's ranked, provenance-annotated universe.

``annotate`` joins the query's tables once, ranks the predicate-free,
DISTINCT-free result by the ``ORDER BY`` attribute and returns an
:class:`Instance` holding

* the annotated tuples in base-rank order, each labelled with its base rank
  (position in that unrestricted ranking), its shadow set (better-ranked
  tuples sharing its DISTINCT key) and its lineage class (the tuples that
  hold the same values in every predicate attribute, so every refinement
  selects all of them or none);
* each lineage class's tuples in base-rank order;
* the DISTINCT key attributes and tuple-id indexes;
* the original query's ranking.

The annotated universe contains the output of every refinement, and
filtering it (``filter_annotated``) is how the MILP builder, the exhaustive
oracle and the exact verifier evaluate refinements without re-running the
join.  ``prepared`` hands one instance to all three, and the database keeps
it for the next request on the same query and relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Iterable, Mapping

from .data import Database, Relation, Tuple, NUMERICAL, natural_join
from .errors import KindMismatchError, PreconditionError
from .query import Query, satisfies

Ranking = list[int]  # tuple ids, positions 1..m


@dataclass(frozen=True)
class AnnotatedTuple:
    tuple: Tuple
    base_rank: int
    shadow: tuple[int, ...]
    lineage_class: int


@dataclass(frozen=True, eq=False)
class Instance:
    """``query``'s annotated universe over one database; iterating it yields
    the annotated tuples in base-rank order.  Requests share it, so every
    field is read-only."""

    query: Query
    annotated: tuple[AnnotatedTuple, ...]
    classes: tuple[tuple[AnnotatedTuple, ...], ...]  # by lineage class id
    key_attrs: tuple[str, ...]
    tuples_by_id: Mapping[int, Tuple]
    annotated_by_id: Mapping[int, AnnotatedTuple]
    original_ranking: tuple[int, ...]

    def __iter__(self):
        return iter(self.annotated)

    def __len__(self) -> int:
        return len(self.annotated)


def joined_relation(q: Query, d: Database) -> Relation:
    rels = [d.get(name) for name in q.tables]
    return reduce(natural_join, rels)


def distinct_key_attrs(rel: Relation, q: Query) -> tuple[str, ...]:
    if not q.distinct:
        return ()
    if q.select_attrs == ("*",):
        return rel.schema.names
    return q.select_attrs


def _ranked(rel: Relation, q: Query) -> list[Tuple]:
    """``rel``'s rows in ``q``'s order, ties broken by ascending tuple id,
    everywhere, so that ranks, positions and deviations agree across
    evaluator, oracle and MILP.

    The sort key is exact and integral: every value scaled to the lcm of
    the column's denominators.
    """
    attr, direction = q.order_by
    if not rel.schema.has(attr):
        raise PreconditionError(f"ORDER BY attribute {attr!r} not in joined schema")
    if rel.schema.kind_of(attr) != NUMERICAL:
        raise KindMismatchError(f"ORDER BY attribute {attr!r} is not numerical")
    for p in q.numeric_preds + q.cat_preds:
        if not rel.schema.has(p.attribute):
            raise PreconditionError(f"predicate attribute {p.attribute!r} not in joined schema")
    rows = sorted(rel.rows, key=attrgetter("tid"))
    values = [t[attr] for t in rows]
    scale = math.lcm(*{v.denominator for v in values})
    sign = -1 if direction == "DESC" else 1
    keys = [sign * v.numerator * (scale // v.denominator) for v in values]
    # a stable sort, so equal values keep ascending tuple-id order
    return [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]


def annotate(q: Query, d: Database) -> Instance:
    """Prepare ``q``'s instance over the database afresh; ``prepared``
    reuses one."""
    rel = joined_relation(q, d)
    key_attrs = distinct_key_attrs(rel, q)
    pred_attrs = tuple(p.attribute for p in q.cat_preds + q.numeric_preds)
    seen_keys: dict[tuple, list[int]] = {}
    # the predicate attributes' values determine the lineage class
    classes: dict[tuple, int] = {}
    members: list[list[AnnotatedTuple]] = []  # by class id
    out: list[AnnotatedTuple] = []
    for rank, t in enumerate(_ranked(rel, q), start=1):
        pred_values = tuple(t.values[a] for a in pred_attrs)
        class_id = classes.get(pred_values)
        if class_id is None:
            class_id = classes[pred_values] = len(classes)
            members.append([])
        shadow: tuple[int, ...] = ()
        if key_attrs:
            key = tuple(t[a] for a in key_attrs)
            shadow = tuple(seen_keys.get(key, ()))
            seen_keys.setdefault(key, []).append(t.tid)
        at = AnnotatedTuple(
            tuple=t,
            base_rank=rank,
            shadow=shadow,
            lineage_class=class_id,
        )
        out.append(at)
        members[class_id].append(at)
    return Instance(
        query=q,
        annotated=tuple(out),
        classes=tuple(map(tuple, members)),
        key_attrs=key_attrs,
        tuples_by_id=MappingProxyType({at.tuple.tid: at.tuple for at in out}),
        annotated_by_id=MappingProxyType({at.tuple.tid: at for at in out}),
        original_ranking=tuple(filter_annotated(out, q, key_attrs)),
    )


def prepared(q: Query, d: Database) -> Instance:
    """The instance ``d`` kept from its last preparation, if that was of
    ``q`` over the very relation objects ``q`` reads now; otherwise a fresh
    ``annotate``, which ``d`` keeps instead."""
    rels = tuple(d.get(name) for name in q.tables)
    if d.last_prepared is not None:
        last_rels, last = d.last_prepared
        if last.query == q and all(map(is_, last_rels, rels)):
            return last
    instance = annotate(q, d)
    d.last_prepared = (rels, instance)
    return instance


def filter_annotated(annotated: Iterable[AnnotatedTuple], q: Query,
                     key_attrs: tuple[str, ...], limit: int | None = None) -> Ranking:
    """Provenance-accelerated evaluation: filter the annotated universe (an
    Instance or its tuples) by a refinement of its query, then dedup on the
    DISTINCT key in base-rank order.  Agrees exactly with `evaluate`, or
    with its first ``limit`` tuples when a limit is given.

    Tuples of one lineage class hold equal values in every predicate
    attribute, so the predicates are tested once per class."""
    seen: set[tuple] = set()
    ranking: Ranking = []
    verdicts: dict[int, bool] = {}
    for at in annotated:  # already in base_rank order
        selected = verdicts.get(at.lineage_class)
        if selected is None:
            selected = verdicts[at.lineage_class] = satisfies(at.tuple, q)
        if not selected:
            continue
        if key_attrs:
            key = tuple(at.tuple[a] for a in key_attrs)
            if key in seen:
                continue
            seen.add(key)
        ranking.append(at.tuple.tid)
        if len(ranking) == limit:
            break
    return ranking


def evaluate(q: Query, d: Database) -> Ranking:
    """Direct evaluation: join, filter, rank, DISTINCT-dedup keeping the
    best-ranked representative."""
    rel = joined_relation(q, d)
    key_attrs = distinct_key_attrs(rel, q)
    seen: set[tuple] = set()
    ranking: Ranking = []
    for t in _ranked(rel, q):
        if not satisfies(t, q):
            continue
        if key_attrs:
            key = tuple(t[a] for a in key_attrs)
            if key in seen:
                continue
            seen.add(key)
        ranking.append(t.tid)
    return ranking


def numeric_domain(annotated: Iterable[AnnotatedTuple], attr: str) -> list[Fraction]:
    return sorted({at.tuple[attr] for at in annotated})


def cat_domain(annotated: Iterable[AnnotatedTuple], attr: str) -> list[str]:
    return sorted({at.tuple[attr] for at in annotated})
