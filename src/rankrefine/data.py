"""Relational data layer: typed CSV loading, natural join, value formatting.

Numeric cells are held as exact :class:`fractions.Fraction` values so that
predicate comparisons (``GPA >= 3.7``) behave like decimal arithmetic, not
binary floating point.  Floats only appear once values are handed to the LP
solver.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Union

from .errors import JoinError, KindMismatchError, LoadError

CATEGORICAL = "categorical"
NUMERICAL = "numerical"

Value = Union[str, Fraction]


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


def compare_kinds(a: Value, b: Value) -> None:
    if isinstance(a, Fraction) != isinstance(b, Fraction):
        raise KindMismatchError(f"cannot compare {a!r} with {b!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list with kinds; names must be unique."""

    attributes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.attributes]
        if len(set(names)) != len(names):
            raise LoadError(f"duplicate attribute names in schema: {names}")
        for name, kind in self.attributes:
            if kind not in (CATEGORICAL, NUMERICAL):
                raise LoadError(f"unknown kind {kind!r} for attribute {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)

    def kind_of(self, name: str) -> str:
        for n, kind in self.attributes:
            if n == name:
                return kind
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.attributes)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]]) -> "Schema":
        return Schema(tuple((str(n), str(k)) for n, k in pairs))


@dataclass(frozen=True)
class Tuple:
    """One row; ``tid`` is unique and stable for the whole run."""

    tid: int
    values: Mapping[str, Value]

    def __getitem__(self, attr: str) -> Value:
        return self.values[attr]


@dataclass(frozen=True)
class Relation:
    name: str
    schema: Schema
    rows: tuple[Tuple, ...] = ()

    def __post_init__(self):
        tids = [t.tid for t in self.rows]
        if len(set(tids)) != len(tids):
            raise LoadError(f"duplicate tuple ids in relation {self.name!r}")
        names = set(self.schema.names)
        for t in self.rows:
            if set(t.values) != names:
                raise LoadError(
                    f"row {t.tid} of {self.name!r} does not match the schema"
                )

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class Database:
    """Named relations.  ``last_prepared`` holds the instance last prepared
    over them, with the relation objects it read and what was derived from
    it (``annotate.Prepared``); relations are immutable, so replacing one is
    the only way their data changes, and ``add`` drops it all."""

    relations: dict[str, Relation] = field(default_factory=dict)
    last_prepared: tuple | None = field(default=None, init=False, compare=False, repr=False)

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
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot read schema file {path}: {exc}") from exc
    if not isinstance(spec, dict) or not all(
            k in (CATEGORICAL, NUMERICAL) for k in spec.values()):
        raise LoadError(f"schema file {path} must hold {_SIDECAR_FORM}")
    return spec


def infer_schema(header: list[str], records: list[list[str]],
                 kinds: Mapping[str, str] | None = None) -> Schema:
    """A column listed in ``kinds`` takes the kind given there; any other
    is numerical iff every non-empty cell parses as a number."""
    kinds = kinds or {}
    pairs = []
    for col, name in enumerate(header):
        if name in kinds:
            pairs.append((name, kinds[name]))
            continue
        numeric = True
        for rec in records:
            cell = rec[col].strip()
            if not cell:
                continue
            try:
                parse_number(cell)
            except (ValueError, ZeroDivisionError):
                numeric = False
                break
        pairs.append((name, NUMERICAL if numeric else CATEGORICAL))
    return Schema.from_pairs(pairs)


def load_csv(path: str | Path, kinds: Mapping[str, str] | None = None,
             name: str | None = None) -> Relation:
    """Load a comma separated UTF-8 file with a header row.

    Column kinds are inferred from the values, except for the columns that
    ``kinds`` lists (see :func:`read_sidecar`).  Tuple ids follow file order
    starting at 1.  Errors name the offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file, header row required") from None
        records = [row for row in reader]

    if len(set(header)) != len(header):
        raise LoadError(f"{path}: duplicate column in header: {header}")
    for i, rec in enumerate(records, start=1):
        if len(rec) != len(header):
            raise LoadError(f"{path}: row {i} has {len(rec)} cells, expected {len(header)}")

    missing = set(kinds or ()) - set(header)
    if missing:
        raise LoadError(f"{path}: schema lists column(s) {sorted(missing)} "
                        f"not in the header; expected {_SIDECAR_FORM}")
    schema = infer_schema(header, records, kinds)

    rows = []
    for i, rec in enumerate(records, start=1):
        values: dict[str, Value] = {}
        for (attr, kind), cell in zip(schema.attributes, rec):
            if kind == NUMERICAL:
                try:
                    values[attr] = parse_number(cell)
                except (ValueError, ZeroDivisionError):
                    raise LoadError(
                        f"{path}: cell {cell!r} at (row {i}, {attr!r}) is not numeric"
                    ) from None
            else:
                values[attr] = cell
        rows.append(Tuple(tid=i, values=values))
    return Relation(name=name or path.stem, schema=schema, rows=tuple(rows))


def natural_join(left: Relation, right: Relation, name: str | None = None) -> Relation:
    """Standard natural join on all same-named attributes.

    Result tids are fresh (left-major order).
    """
    shared = [n for n in left.schema.names if right.schema.has(n)]
    if not shared:
        raise JoinError(
            f"no shared attributes between {left.name!r} and {right.name!r}"
        )
    for n in shared:
        if left.schema.kind_of(n) != right.schema.kind_of(n):
            raise JoinError(f"shared attribute {n!r} has mismatched kinds")

    out_attrs = list(left.schema.attributes) + [
        (n, k) for n, k in right.schema.attributes if n not in shared
    ]
    index: dict[tuple, list[Tuple]] = {}
    for rt in right.rows:
        index.setdefault(tuple(rt[n] for n in shared), []).append(rt)

    rows = []
    tid = 0
    for lt in left.rows:
        for rt in index.get(tuple(lt[n] for n in shared), ()):
            tid += 1
            values = dict(lt.values)
            for n, _ in right.schema.attributes:
                if n not in shared:
                    values[n] = rt[n]
            rows.append(Tuple(tid=tid, values=values))
    return Relation(
        name=name or f"{left.name}_{right.name}",
        schema=Schema.from_pairs(out_attrs),
        rows=tuple(rows),
    )
