"""The prepared instance: one query's ranked, provenance-annotated universe.

``annotate`` joins the query's tables once, ranks the predicate-free,
DISTINCT-free result by the ``ORDER BY`` attribute and returns an
:class:`Instance` holding

* the annotated tuples in base-rank order, one per joined row, each
  labelled with its tuple id, its base rank (position in that unrestricted
  ranking), its DISTINCT key (its tuple id without DISTINCT), the nearest
  better-ranked tuple sharing that key, and its lineage class (the tuples
  that hold the same values in every predicate attribute, so every
  refinement selects all of them or none).  A tuple holds no cells of its
  own: ``row[attr]`` reads them from the joined relation's columns;
* each lineage class's tuples in base-rank order;
* the DISTINCT key attributes and tuple-id index;
* the original query's ranking.

The annotated universe contains the output of every refinement, and
filtering it (``filter_annotated``) is how the MILP builder, the exhaustive
oracle and the exact verifier evaluate refinements without re-running the
join.  ``preparation`` hands one instance to all three, and the database
keeps it for the next request on the same query and relations, together
with the last few models built on it, each for one whole request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import is_
from types import MappingProxyType
from typing import Iterable, Mapping

from .data import CATEGORICAL, NUMERICAL, Database, Relation, Schema, Value, natural_join
from .errors import KindMismatchError, PreconditionError
from .query import Query, Refinement, render_sql, satisfies

Ranking = list[int]  # tuple ids, positions 1..m


@dataclass(frozen=True, slots=True)
class AnnotatedTuple:
    tid: int
    base_rank: int
    key: tuple | int  # the DISTINCT key, or the tuple id without DISTINCT
    # the nearest better-ranked tuple of the same key; its chain is the
    # tuple's shadow set, left out of ``==``, hashing and ``repr``
    prev: AnnotatedTuple | None = field(compare=False, repr=False)
    lineage_class: int
    # the joined columns by attribute, shared by the instance's tuples and left out too
    cells: Mapping[str, tuple[Value, ...]] = field(compare=False, repr=False)

    def __getitem__(self, attr: str) -> Value:
        return self.cells[attr][self.tid - 1]


@dataclass(frozen=True, eq=False)
class Instance:
    """``query``'s annotated universe over one database; iterating it yields
    the annotated tuples in base-rank order.  Requests share it, so every
    field but the ``models`` and ``interned`` memos is read-only.  The
    database keeps it as a whole and drops it as a whole (by
    ``Database.add``, a relation object swapped in, or a request on another
    query), so no model outlives its instance."""

    query: Query
    relations: tuple[Relation, ...]  # the relation objects it was joined from
    schema: Schema  # of the joined relation
    annotated: tuple[AnnotatedTuple, ...]
    classes: tuple[tuple[AnnotatedTuple, ...], ...]  # by lineage class id
    key_attrs: tuple[str, ...]
    tuples_by_id: Mapping[int, AnnotatedTuple]
    original_ranking: tuple[int, ...]
    unchanged: Refinement  # the query's own refinement, shared by its results
    unchanged_sql: str  # and its SQL text, which a settled result reports
    # built models, by the whole request, least recently used first (see
    # ``milp.build.build_model``); never written after their build
    models: dict = field(default_factory=dict, repr=False)
    # values that equal results share, each its own key (``engine._interned``)
    interned: dict = field(default_factory=dict, repr=False)

    def __iter__(self):
        return iter(self.annotated)

    def __len__(self) -> int:
        return len(self.annotated)

    def domain(self, attr: str) -> list:
        """The sorted values of a predicate attribute, read from each lineage
        class's first member (the tuples of a class agree on them)."""
        return sorted({members[0][attr] for members in self.classes})


def joined_relation(q: Query, d: Database) -> Relation:
    return reduce(natural_join, [d.get(name) for name in q.tables])


def distinct_key_attrs(rel: Relation, q: Query) -> tuple[str, ...]:
    """The SELECT attributes with DISTINCT and none without; every SELECT
    attribute must be in ``rel``'s schema either way."""
    if q.select_attrs == ("*",):
        return rel.schema.names if q.distinct else ()
    for attr in q.select_attrs:
        if not rel.schema.has(attr):
            select = "SELECT DISTINCT" if q.distinct else "SELECT"
            raise PreconditionError(f"{select} attribute {attr!r} not in joined schema")
    return q.select_attrs if q.distinct else ()


def _ranked(rel: Relation, q: Query) -> list[int]:
    """``rel``'s row indices in ``q``'s order, ties broken by ascending tuple
    id, everywhere, so that ranks, positions and deviations agree across
    evaluator, oracle and MILP.  It first checks that ``q``'s attributes are in
    ``rel``'s schema, of their predicates' kinds, whether or not ``rel`` has rows.

    The sort key is exact and integral: every value scaled to the lcm of
    the column's denominators.
    """
    attr, direction = q.order_by
    schema = rel.schema
    if not schema.has(attr):
        raise PreconditionError(f"ORDER BY attribute {attr!r} not in joined schema")
    if schema.kind_of(attr) != NUMERICAL:
        raise KindMismatchError(f"ORDER BY attribute {attr!r} is not numerical")
    for p in q.numeric_preds + q.cat_preds:
        if not schema.has(p.attribute):
            raise PreconditionError(f"predicate attribute {p.attribute!r} not in joined schema")
    for p in q.numeric_preds:
        if schema.kind_of(p.attribute) != NUMERICAL:
            raise KindMismatchError(f"attribute {p.attribute!r} is not numeric")
    for p in q.cat_preds:
        if schema.kind_of(p.attribute) != CATEGORICAL:
            raise KindMismatchError(
                f"categorical predicate on {p.attribute!r} applied to a number")
    values = rel.column(attr)
    scale = math.lcm(*{v.denominator for v in values})
    sign = -1 if direction == "DESC" else 1
    keys = [sign * v.numerator * (scale // v.denominator) for v in values]
    # a stable sort, so equal values keep ascending tuple-id order
    return sorted(range(len(values)), key=keys.__getitem__)


def annotate(q: Query, d: Database) -> Instance:
    """Prepare ``q``'s instance over the database afresh; ``preparation``
    reuses one."""
    relations = tuple(d.get(name) for name in q.tables)
    rel = joined_relation(q, d)
    key_attrs = distinct_key_attrs(rel, q)
    cells = dict(zip(rel.schema.names, rel.columns))
    key_columns = [cells[a] for a in key_attrs]
    pred_columns = [cells[p.attribute] for p in q.cat_preds + q.numeric_preds]
    last: dict = {}  # key -> its worst-ranked tuple so far
    # the predicate attributes' values determine the lineage class
    classes: dict[tuple, int] = {}
    members: list[list[AnnotatedTuple]] = []  # by class id
    out: list[AnnotatedTuple] = []
    for rank, i in enumerate(_ranked(rel, q), start=1):
        pred_values = tuple(c[i] for c in pred_columns)
        class_id = classes.get(pred_values)
        if class_id is None:
            class_id = classes[pred_values] = len(classes)
            members.append([])
        key = tuple(c[i] for c in key_columns) if key_columns else i + 1
        at = last[key] = AnnotatedTuple(i + 1, rank, key, last.get(key), class_id, cells)
        out.append(at)
        members[class_id].append(at)
    return Instance(
        query=q,
        relations=relations,
        schema=rel.schema,
        annotated=tuple(out),
        classes=tuple(map(tuple, members)),
        key_attrs=key_attrs,
        tuples_by_id=MappingProxyType({at.tid: at for at in out}),
        original_ranking=tuple(filter_annotated(out, q)),
        unchanged=Refinement.unchanged(q),
        unchanged_sql=render_sql(q),
    )


def preparation(q: Query, d: Database) -> Instance:
    """The instance ``d`` kept from its last preparation, if that was of
    ``q`` over the very relation objects ``q`` reads now; otherwise a fresh
    ``annotate``, which ``d`` keeps instead."""
    rels = tuple(d.get(name) for name in q.tables)
    last = d.last_prepared
    if last is not None and last.query == q and all(map(is_, last.relations, rels)):
        return last
    d.last_prepared = annotate(q, d)
    return d.last_prepared


def filter_annotated(annotated: Iterable[AnnotatedTuple], q: Query, *,
                     limit: int | None = None) -> Ranking:
    """Provenance-accelerated evaluation: filter the annotated universe (an
    Instance or its tuples) by a refinement of its query, then dedup on each
    tuple's key in base-rank order.  Agrees exactly with `evaluate`, or
    with its first ``limit`` tuples when a limit is given.

    Tuples of one lineage class hold equal values in every predicate
    attribute, so the predicates are tested once per class."""
    seen: set = set()
    ranking: Ranking = []
    verdicts: dict[int, bool] = {}
    for at in annotated:  # already in base_rank order
        selected = verdicts.get(at.lineage_class)
        if selected is None:
            selected = verdicts[at.lineage_class] = satisfies(at, q)
        if not selected or at.key in seen:
            continue
        seen.add(at.key)
        ranking.append(at.tid)
        if len(ranking) == limit:
            break
    return ranking


def evaluate(q: Query, d: Database) -> Ranking:
    """Direct evaluation: join, filter, rank, DISTINCT-dedup keeping the
    best-ranked representative, over plain-dict rows, not ``annotate``'s."""
    rel = joined_relation(q, d)
    key_attrs = distinct_key_attrs(rel, q)
    seen: set[tuple] = set()
    ranking: Ranking = []
    for i in _ranked(rel, q):
        row = dict(zip(rel.schema.names, (column[i] for column in rel.columns)))
        if not satisfies(row, q):
            continue
        if key_attrs:
            key = tuple(row[a] for a in key_attrs)
            if key in seen:
                continue
            seen.add(key)
        ranking.append(i + 1)
    return ranking

