"""Query AST, parser, renderer, refinement application and predicate tests.

Supported class: conjunctive Select-Project-Join queries with optional
DISTINCT and a single ORDER BY attribute.  Grammar (keywords are
case-insensitive, strings single-quoted, identifiers may be double-quoted):

    SELECT [DISTINCT] (cols | *) FROM name (NATURAL JOIN name)*
        [WHERE pred (AND pred)*] ORDER BY attr [ASC|DESC]
    pred := attr op number
          | attr = 'text' (OR attr = 'text')*      -- same attr on all branches
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .data import compare_kinds, format_number, parse_number
from .errors import KindMismatchError, QuerySyntaxError, UnsupportedQueryError

NUM_OPS = ("<", "<=", "=", ">", ">=")
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class NumPredicate:
    attribute: str
    op: str
    constant: Fraction

    def __post_init__(self):
        if self.op not in NUM_OPS:
            raise QuerySyntaxError(f"unknown operator {self.op!r}")

    def holds(self, value: Fraction) -> bool:
        compare_kinds(value, self.constant)
        return _COMPARE[self.op](value, self.constant)


@dataclass(frozen=True)
class CatPredicate:
    attribute: str
    values: frozenset[str]

    def __post_init__(self):
        if not self.values:
            raise QuerySyntaxError(
                f"categorical predicate on {self.attribute!r} has an empty value set"
            )

    def holds(self, value: str) -> bool:
        if not isinstance(value, str):
            raise KindMismatchError(
                f"categorical predicate on {self.attribute!r} applied to a number"
            )
        return value in self.values


@dataclass(frozen=True)
class Query:
    tables: tuple[str, ...]
    select_attrs: tuple[str, ...]  # ("*",) selects everything
    distinct: bool
    numeric_preds: tuple[NumPredicate, ...]
    cat_preds: tuple[CatPredicate, ...]
    order_by: tuple[str, str]  # (attribute, "ASC" | "DESC")

    def __post_init__(self):
        seen = set()
        for p in self.numeric_preds:
            key = (p.attribute, p.op)
            if key in seen:
                raise UnsupportedQueryError(
                    f"two numeric predicates share attribute/operator {key}"
                )
            seen.add(key)
        cat_attrs = [p.attribute for p in self.cat_preds]
        if len(set(cat_attrs)) != len(cat_attrs):
            raise UnsupportedQueryError(
                "two categorical predicates on one attribute are outside the "
                "supported query class"
            )
        if self.order_by[1] not in ("ASC", "DESC"):
            raise QuerySyntaxError(f"bad ORDER BY direction {self.order_by[1]!r}")


@dataclass(frozen=True, slots=True)
class Refinement:
    """Substitution of predicate constants/value sets; never adds or removes
    predicates.  Unmapped predicates keep their original constants."""

    numeric_constants: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    cat_values: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def unchanged(cls, q: Query) -> Refinement:
        """``q``'s own constants and value sets, every predicate mapped."""
        return cls(
            numeric_constants={(p.attribute, p.op): p.constant for p in q.numeric_preds},
            cat_values={p.attribute: p.values for p in q.cat_preds},
        )

    def encoding_key(self, q: Query):
        """Deterministic total order over refinements of ``q`` (tie-breaks)."""
        nums = tuple(
            self.numeric_constants.get((p.attribute, p.op), p.constant)
            for p in q.numeric_preds
        )
        cats = tuple(
            tuple(sorted(self.cat_values.get(p.attribute, p.values)))
            for p in q.cat_preds
        )
        return (nums, cats)


def apply_refinement(q: Query, r: Refinement) -> Query:
    """``q`` with ``r``'s constants and value sets; ``q`` itself if none changes."""
    num_keys = {(p.attribute, p.op) for p in q.numeric_preds}
    for key in r.numeric_constants:
        if key not in num_keys:
            raise KeyError(f"refinement targets missing numeric predicate {key}")
    cat_keys = {p.attribute for p in q.cat_preds}
    for attr in r.cat_values:
        if attr not in cat_keys:
            raise KeyError(f"refinement targets missing categorical predicate {attr!r}")
        if not r.cat_values[attr]:
            raise ValueError(f"refined value set for {attr!r} is empty")
    new_nums = tuple(
        p if (c := r.numeric_constants.get((p.attribute, p.op), p.constant)) == p.constant
        else replace(p, constant=c)
        for p in q.numeric_preds
    )
    new_cats = tuple(
        p if (v := frozenset(r.cat_values.get(p.attribute, p.values))) == p.values
        else replace(p, values=v)
        for p in q.cat_preds
    )
    if new_nums == q.numeric_preds and new_cats == q.cat_preds:
        return q
    return replace(q, numeric_preds=new_nums, cat_preds=new_cats)


def satisfies(row, q: Query) -> bool:
    """True iff ``row`` (any whose ``row[attr]`` is its cell) satisfies every predicate."""
    for p in q.numeric_preds:
        v = row[p.attribute]
        if isinstance(v, str):
            raise KindMismatchError(f"attribute {p.attribute!r} is not numeric")
        if not p.holds(v):
            return False
    for p in q.cat_preds:
        if not p.holds(row[p.attribute]):
            return False
    return True


# --- rendering ------------------------------------------------------------

_PLAIN_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _ident(name: str) -> str:
    return name if _PLAIN_IDENT.match(name) else f'"{name}"'


def render_sql(q: Query) -> str:
    """Deterministic SQL text; parsing it back yields a structurally equal
    query (categorical values are emitted in sorted order)."""
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    star = q.select_attrs == ("*",)
    parts.append("*" if star else ", ".join(_ident(a) for a in q.select_attrs))
    parts.append("FROM")
    parts.append(" NATURAL JOIN ".join(_ident(t) for t in q.tables))
    preds = []
    for p in q.numeric_preds:
        preds.append(f"{_ident(p.attribute)} {p.op} {format_number(p.constant)}")
    for p in q.cat_preds:
        branches = [
            f"{_ident(p.attribute)} = '{v.replace(chr(39), chr(39) * 2)}'"
            for v in sorted(p.values)
        ]
        preds.append(branches[0] if len(branches) == 1 else "(" + " OR ".join(branches) + ")")
    if preds:
        parts.append("WHERE " + " AND ".join(preds))
    parts.append(f"ORDER BY {_ident(q.order_by[0])} {q.order_by[1]}")
    return " ".join(parts)


# --- parsing ---------------------------------------------------------------

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "NATURAL", "JOIN", "WHERE",
    "AND", "OR", "ORDER", "BY", "ASC", "DESC", "UNION", "LIMIT",
}

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<qident>"[^"]+")
      | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|<|>|=)
      | (?P<punct>[(),*])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "word" and val.upper() in _KEYWORDS:
            tokens.append(("kw", val.upper(), m.start(kind)))
        elif kind == "qident":
            tokens.append(("ident", val[1:-1], m.start(kind)))
        elif kind == "word":
            tokens.append(("ident", val, m.start(kind)))
        elif kind == "string":
            tokens.append(("string", val[1:-1].replace("''", "'"), m.start(kind)))
        else:
            tokens.append((kind, val, m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_kw(self, word: str):
        kind, val, pos = self.next()
        if kind != "kw" or val != word:
            raise QuerySyntaxError(f"expected {word}, found {val!r}", pos)

    def accept_kw(self, word: str) -> bool:
        kind, val, _ = self.peek()
        if kind == "kw" and val == word:
            self.i += 1
            return True
        return False

    def expect_ident(self) -> str:
        kind, val, pos = self.next()
        if kind != "ident":
            raise QuerySyntaxError(f"expected identifier, found {val!r}", pos)
        return val

    def parse(self) -> Query:
        self.expect_kw("SELECT")
        if self.peek()[:2] == ("kw", "SELECT"):
            raise UnsupportedQueryError("nested queries are outside the supported class")
        distinct = self.accept_kw("DISTINCT")
        select_attrs = self.parse_select_list()
        self.expect_kw("FROM")
        if self.peek()[:2] == ("punct", "("):
            raise UnsupportedQueryError("nested queries are outside the supported class")
        tables = [self.expect_ident()]
        while self.accept_kw("NATURAL"):
            self.expect_kw("JOIN")
            tables.append(self.expect_ident())
        num_preds: list[NumPredicate] = []
        cat_preds: list[CatPredicate] = []
        if self.accept_kw("WHERE"):
            self.parse_pred(num_preds, cat_preds)
            while self.accept_kw("AND"):
                self.parse_pred(num_preds, cat_preds)
        self.expect_kw("ORDER")
        self.expect_kw("BY")
        attr = self.expect_ident()
        direction = "ASC" if self.accept_kw("ASC") else ("DESC" if self.accept_kw("DESC") else "ASC")
        kind, val, pos = self.peek()
        if kind == "kw" and val in ("UNION", "LIMIT"):
            raise UnsupportedQueryError(f"{val} is outside the supported query class")
        if kind != "eof":
            raise QuerySyntaxError(f"trailing input {val!r}", pos)
        return Query(
            tables=tuple(tables),
            select_attrs=tuple(select_attrs),
            distinct=distinct,
            numeric_preds=tuple(num_preds),
            cat_preds=tuple(cat_preds),
            order_by=(attr, direction),
        )

    def parse_select_list(self) -> list[str]:
        if self.peek()[0] == "punct" and self.peek()[1] == "*":
            self.next()
            return ["*"]
        attrs = [self.expect_ident()]
        while self.peek()[:2] == ("punct", ","):
            self.next()
            attrs.append(self.expect_ident())
        return attrs

    def parse_pred(self, num_preds: list, cat_preds: list) -> None:
        paren = False
        if self.peek()[:2] == ("punct", "("):
            self.next()
            paren = True
            if self.peek()[:2] == ("kw", "SELECT"):
                raise UnsupportedQueryError("nested queries are outside the supported class")
        attr = self.expect_ident()
        kind, op, pos = self.next()
        if kind != "op":
            raise QuerySyntaxError(f"expected comparison operator, found {op!r}", pos)
        kind, val, pos = self.next()
        if kind == "number":
            num_preds.append(NumPredicate(attr, op, parse_number(val)))
            if self.peek()[:2] == ("kw", "OR"):
                raise UnsupportedQueryError(
                    "OR over numeric predicates is outside the supported class"
                )
        elif kind == "string":
            if op != "=":
                raise QuerySyntaxError(f"categorical predicates only support '=', found {op!r}", pos)
            values = {val}
            while self.accept_kw("OR"):
                branch_attr = self.expect_ident()
                kind2, op2, pos2 = self.next()
                if kind2 != "op" or op2 != "=":
                    raise QuerySyntaxError("expected '=' in OR branch", pos2)
                kind2, val2, pos2 = self.next()
                if kind2 != "string":
                    raise UnsupportedQueryError(
                        "OR branches must be categorical equalities"
                    )
                if branch_attr != attr:
                    raise UnsupportedQueryError(
                        "disjunction across attributes is outside the supported class"
                    )
                values.add(val2)
            cat_preds.append(CatPredicate(attr, frozenset(values)))
        else:
            raise QuerySyntaxError(f"expected a constant, found {val!r}", pos)
        if paren:
            kind, val, pos = self.next()
            if (kind, val) != ("punct", ")"):
                raise QuerySyntaxError(f"expected ')', found {val!r}", pos)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()
