"""Relational data layer: typed CSV loading, natural join, value formatting.

A :class:`Relation` holds one tuple of values per attribute, and no layer
makes an object per row: a ranked row (``annotate.AnnotatedTuple``) reads
its cells from the joined relation's columns as ``row[attr]``.  A
categorical cell is a ``str``; a cell is a number iff ``Fraction(cell.strip())``
reads it, and is then held exactly: an ``int`` when integral however it is
spelled (``12``, ``12.``, ``1e3``), else a :class:`fractions.Fraction`.  So
predicate comparisons (``GPA >= 3.7``) behave like decimal arithmetic, and
floats only appear once values are handed to the LP solver.

Every cell matches its attribute's kind in the :class:`Schema`, as ``load_csv``
and ``natural_join`` guarantee, so ``annotate`` checks predicates against kinds once.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .errors import JoinError, LoadError

if TYPE_CHECKING:
    from .annotate import Instance

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

Value = Union[str, int, Fraction]


def parse_number(text: str) -> Fraction:
    return Fraction(text.strip())


def format_number(x: Fraction) -> str:
    """Canonical text for a numeric value: plain decimal when the denominator
    is a product of 2s and 5s, otherwise ``p/q`` (both reload exactly)."""
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    shift = max(twos, fives)
    scaled = x.numerator * (2 ** (shift - twos)) * (5 ** (shift - fives))
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list with kinds; names must be unique."""

    attributes: tuple[tuple[str, str], ...]
    # each set once here and left out of ``==``, hashing and ``repr``
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    _kinds: dict[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kinds = dict(self.attributes)
        if len(kinds) != len(self.attributes):
            raise LoadError("duplicate attribute names in schema: "
                            f"{[n for n, _ in self.attributes]}")
        for name, kind in self.attributes:
            if kind not in (CATEGORICAL, NUMERICAL):
                raise LoadError(f"unknown kind {kind!r} for attribute {name!r}")
        object.__setattr__(self, "names", tuple(kinds))
        object.__setattr__(self, "_kinds", kinds)

    def kind_of(self, name: str) -> str:
        return self._kinds[name]

    def has(self, name: str) -> bool:
        return name in self._kinds

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]]) -> "Schema":
        return Schema(tuple((str(n), str(k)) for n, k in pairs))


@dataclass(frozen=True)
class Relation:
    """``columns[j]`` holds every row's value of the schema's j-th
    attribute, and row i has tuple id i + 1.  Each cell must be of its
    attribute's kind (a ``str`` if categorical, else an ``int`` or ``Fraction``):
    ``load_csv`` and ``natural_join`` guarantee it, and nothing checks it per cell."""

    name: str
    schema: Schema
    columns: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        if (len(self.columns) != len(self.schema.attributes)
                or len(set(map(len, self.columns))) > 1):
            raise LoadError(f"the columns of relation {self.name!r} do not fit its schema")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, attr: str) -> tuple[Value, ...]:
        return self.columns[self.schema.names.index(attr)]


@dataclass
class Database:
    """Named relations.  ``last_prepared`` holds the instance last prepared
    over them, which records the relation objects it read and keeps the
    models built on it; relations are immutable, so replacing one is the
    only way their data changes, and ``add`` drops the instance."""

    relations: dict[str, Relation] = field(default_factory=dict)
    last_prepared: Instance | None = field(default=None, init=False, compare=False, repr=False)

    def add(self, rel: Relation) -> None:
        self.relations[rel.name] = rel
        self.last_prepared = None

    def get(self, name: str) -> Relation:
        if name not in self.relations:
            raise LoadError(f"unknown relation {name!r}")
        return self.relations[name]


_SIDECAR_FORM = ('a JSON object mapping CSV columns to "numerical" or '
                 '"categorical", e.g. {"ID": "numerical", "Gender": "categorical"}')


def read_sidecar(path: str | Path) -> dict[str, str]:
    """Sidecar schema file: column kinds that override the inferred ones."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read schema file {path}: {exc}") from exc
    if not isinstance(spec, dict) or not all(
            k in (CATEGORICAL, NUMERICAL) for k in spec.values()):
        raise LoadError(f"schema file {path} must hold {_SIDECAR_FORM}")
    return spec


def _numbers(cells: Sequence[str]) -> Sequence[int | Fraction]:
    """The exact values of ``cells`` up to the first one that is not a number,
    so a short list points at that cell; integral ones are ints, and a
    repeated string is parsed once."""
    if all(map(str.isdecimal, cells)):
        with contextlib.suppress(ValueError):  # more digits than ``int`` reads
            return tuple(map(int, cells))
    seen: dict[str, int | Fraction] = {}
    values = []
    for cell in cells:
        value = seen.get(cell)
        if value is None:
            try:
                value = parse_number(cell)
            except (ValueError, ZeroDivisionError):
                break
            value = seen[cell] = value.numerator if value.denominator == 1 else value
        values.append(value)
    return values


def load_csv(path: str | Path, kinds: Mapping[str, str] | None = None,
             name: str | None = None) -> Relation:
    """Load a comma separated UTF-8 file with a header row, less any byte
    order mark.

    A column that ``kinds`` lists (see :func:`read_sidecar`) takes the kind
    given there; any other is numerical iff every cell is a number, so an
    empty cell makes it categorical.  Rows take tuple ids 1, 2, ... in file
    order.  Errors name the offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file, header row required") from None
        if len(set(header)) != len(header):
            raise LoadError(f"{path}: duplicate column in header: {header}")
        cells: list[list[str]] = [[] for _ in header]
        n = 0
        # 512 rows at a time: each row's list dies before the GC promotes it
        while chunk := list(islice(reader, 512)):
            for i, rec in enumerate(chunk, start=n + 1):
                if len(rec) != len(header):
                    raise LoadError(f"{path}: row {i} has {len(rec)} cells, "
                                    f"expected {len(header)}")
            for column, part in zip(cells, zip(*chunk)):
                column.extend(part)
            n += len(chunk)

    kinds = kinds or {}
    missing = set(kinds) - set(header)
    if missing:
        raise LoadError(f"{path}: schema lists column(s) {sorted(missing)} "
                        f"not in the header; expected {_SIDECAR_FORM}")

    attributes, columns, bad = [], [], []
    for col, (attr, texts) in enumerate(zip(header, cells)):
        kind = kinds.get(attr)
        values = texts if kind == CATEGORICAL else _numbers(texts)
        if len(values) < n:  # an empty or non-numeric cell
            if kind == NUMERICAL:
                bad.append((len(values) + 1, col, attr, texts[len(values)]))
            values, kind = texts, kind or CATEGORICAL
        attributes.append((attr, kind or NUMERICAL))
        columns.append(tuple(values))
    schema = Schema.from_pairs(attributes)
    if bad:
        i, _, attr, cell = min(bad)
        raise LoadError(f"{path}: cell {cell!r} at (row {i}, {attr!r}) is not numeric")
    return Relation(name or path.stem, schema, tuple(columns))


def load_database(paths: Mapping[str, str | Path],
                  schemas: Mapping[str, str | Path]) -> Database:
    """The named CSV files, each read with the sidecar schema ``schemas``
    names it with, if any; a schema of a name ``paths`` lacks is invalid."""
    unknown = sorted(schemas.keys() - paths.keys())
    if unknown:
        raise LoadError(f"no data file is named for the schema of {unknown}")
    db = Database()
    for name, path in paths.items():
        kinds = read_sidecar(schemas[name]) if name in schemas else None
        db.add(load_csv(path, kinds, name=name))
    return db


def _join_keys(rel: Relation, shared: list[str]) -> Iterable:
    """Each row's values of ``shared``, in row order."""
    keys = [rel.column(n) for n in shared]
    return keys[0] if len(keys) == 1 else zip(*keys)


def natural_join(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Standard natural join on all same-named attributes; result tids are
    fresh, in left-major order.  It pairs row indices through an index of
    the right relation's keys, then gathers each column at them."""
    shared = [n for n in left.schema.names if right.schema.has(n)]
    if not shared:
        raise JoinError(f"no shared attributes between {left.name!r} and {right.name!r}")
    for n in shared:
        if left.schema.kind_of(n) != right.schema.kind_of(n):
            raise JoinError(f"shared attribute {n!r} has mismatched kinds")

    right_attrs = [(n, k) for n, k in right.schema.attributes if n not in shared]
    index: dict = {}
    for j, key in enumerate(_join_keys(right, shared)):
        index.setdefault(key, []).append(j)
    lefts, rights = [], []  # the row indices of each joined row
    for i, key in enumerate(_join_keys(left, shared)):
        matches = index.get(key)
        if matches:
            lefts += [i] * len(matches)
            rights += matches
    columns = [tuple(map(c.__getitem__, lefts)) for c in left.columns]
    columns += [tuple(map(right.column(n).__getitem__, rights)) for n, _ in right_attrs]
    return Relation(name or f"{left.name}_{right.name}",
                    Schema.from_pairs(list(left.schema.attributes) + right_attrs),
                    tuple(columns))
