"""Cardinality constraints over top-k prefixes and the deviation measure.

Deviation is computed with exact rational arithmetic so that "deviation is
zero" is a crisp statement, never a float comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping

from .annotate import AnnotatedTuple
from .data import NUMERICAL, Schema, Value, format_number, parse_number
from .errors import ConstraintValidationError, PreconditionError

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class CardinalityConstraint:
    """Bound of ``n`` tuples of ``group`` within the top ``k``; the group is a
    conjunction of attribute equalities."""

    group: tuple[tuple[str, Value], ...]
    k: int
    n: int
    sense: str

    def __post_init__(self):
        if not self.group:
            raise ConstraintValidationError("constraint group must be non-empty")
        if self.sense not in (LOWER, UPPER):
            raise ConstraintValidationError(f"unknown sense {self.sense!r}")
        if self.n < 1:
            raise ConstraintValidationError(f"bound n must be >= 1, got {self.n}")
        if self.k < 1:
            raise ConstraintValidationError(f"prefix size k must be >= 1, got {self.k}")
        if self.n > self.k:
            raise ConstraintValidationError(f"bound n={self.n} exceeds k={self.k}")

    @property
    def sign(self) -> int:
        return 1 if self.sense == LOWER else -1

    def contains(self, row) -> bool:
        """Whether ``row`` (any whose ``row[attr]`` is its cell) is in the group.  A group
        attribute the row lacks raises ``KeyError``; ``ConstraintSet.over`` rejects those."""
        for a, v in self.group:
            if row[a] != v:
                return False
        return True

    def label(self) -> str:
        body = ",".join(f"{a}={v if isinstance(v, str) else format_number(v)}"
                        for a, v in self.group)
        return f"{'lb' if self.sense == LOWER else 'ub'}[{body},k={self.k}]={self.n}"


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[CardinalityConstraint, ...]
    # each set once here and left out of ``==``, hashing and ``repr``
    k_star: int = field(init=False, compare=False, repr=False)  # the largest constrained k
    labels: tuple[str, ...] = field(init=False, compare=False, repr=False)  # by constraint
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.constraints:
            raise ConstraintValidationError("constraint set must be non-empty")
        object.__setattr__(self, "k_star", max(c.k for c in self.constraints))
        object.__setattr__(self, "labels", tuple(c.label() for c in self.constraints))
        object.__setattr__(self, "_hash", hash((self.constraints,)))  # as dataclass would hash

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def over(self, schema: Schema) -> ConstraintSet:
        """These constraints as they apply to rows of ``schema``: every group
        attribute must be in it, and a numerical attribute's group value is
        held as the exact number it names, so ``contains`` compares like
        with like.  When no group value changes that way, it returns the set itself."""
        out = []
        for c in self:
            group = []
            for a, v in c.group:
                if not schema.has(a):
                    raise ConstraintValidationError(
                        f"constraint group attribute {a!r} not in the query's joined schema")
                if schema.kind_of(a) == NUMERICAL and isinstance(v, str):
                    try:
                        v = parse_number(str(v))
                    except (ValueError, ZeroDivisionError) as exc:
                        raise ConstraintValidationError(
                            f"constraint group value {v!r} of numerical attribute {a!r} "
                            "is not a number") from exc
                group.append((a, v))
            out.append(c if tuple(group) == c.group else replace(c, group=tuple(group)))
        return self if out == list(self) else ConstraintSet(tuple(out))


def memberships(ranking: list[int], tuples_by_id: Mapping[int, AnnotatedTuple],
                cs: ConstraintSet) -> list[list[bool]]:
    """Per constraint of ``cs``, whether each of the ranking's first k* tuples is in its group."""
    rows = [tuples_by_id[tid] for tid in ranking[:cs.k_star]]
    return [[c.contains(row) for row in rows] for c in cs]


def deviation(ranking: list[int], tuples_by_id: Mapping[int, AnnotatedTuple],
              cs: ConstraintSet, members: list[list[bool]] | None = None) -> Fraction:
    """Mean one-sided relative shortfall/excess across the constraint set.
    A lower bound adds at most 1 and an upper bound at most (k - n)/n, so
    the mean can exceed 1.  Requires the ranking to cover the largest
    constrained k; ``tuples_by_id`` is an instance's, whose rows read the joined columns.
    A caller that holds the ranking's ``memberships`` passes them as ``members``."""
    if len(ranking) < cs.k_star:
        raise PreconditionError(f"ranking has {len(ranking)} tuples, needs at least k*={cs.k_star}")
    if members is None:
        members = memberships(ranking, tuples_by_id, cs)
    # each term over the lcm of the bounds, so one exact division at the end
    den = math.lcm(*(c.n for c in cs))
    total = sum(max(c.sign * (c.n - sum(inside[:c.k])), 0) * (den // c.n)
                for c, inside in zip(cs, members))
    return Fraction(total, den * len(cs))


def read_count(value, name: str) -> int:
    """A constraint entry's ``k`` or ``n``: an integral number, or text
    naming one; a boolean is neither."""
    try:
        number = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        number = None
    if number is None or number.denominator != 1:
        raise ConstraintValidationError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def read_constraint(entry: dict, k: int | None = None, n: int | None = None
                    ) -> CardinalityConstraint:
    """One constraint file entry, ``{"group": {attr: value, ...}, "k": int,
    "sense": "lower"|"upper", "n": int}``, its group values (strings or
    numbers) read as text; a ``k`` or ``n`` given here takes the place of
    the entry's."""
    group = entry["group"]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in group.values()):
        raise ConstraintValidationError(f"a constraint group value is not a string or a "
                                        f"number: {group}")
    return CardinalityConstraint(
        group=tuple(sorted((str(a), str(v)) for a, v in group.items())),
        k=read_count(entry["k"], "k") if k is None else k,
        n=read_count(entry["n"], "n") if n is None else n,
        sense=str(entry["sense"]),
    )


def parse_constraints(text: str) -> ConstraintSet:
    """Constraint file: a non-empty JSON array of entries (see
    ``read_constraint``)."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConstraintValidationError(f"constraints are not valid JSON: {exc}") from exc
    if not isinstance(spec, list) or not spec:
        raise ConstraintValidationError("constraint file must hold a non-empty JSON array")
    out = []
    for i, entry in enumerate(spec):
        try:
            out.append(read_constraint(entry))
        except (KeyError, TypeError, AttributeError, ValueError,
                ConstraintValidationError) as exc:
            raise ConstraintValidationError(f"constraint #{i}: {exc}") from exc
    return ConstraintSet(tuple(out))
