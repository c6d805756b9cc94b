"""Mixed-integer linear program container, stored column-indexed the way
HiGHS takes it: one entry per column in each column list, and the rows as
a compressed row-wise matrix with lower and upper bounds.

Columns are named when they are added, and a solution holds one value per
column, by index.  A row keeps only the parts its name is made from; the
names themselves are made on demand, for ``--lp-dump`` and the read-only
:attr:`MILPModel.rows` view.

:mod:`rankrefine.milp.solver` loads it into HiGHS to solve it or to write
it in LP form (``--lp-dump``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ..errors import InternalConsistencyError

BINARY = "binary"
CONTINUOUS = "continuous"

_SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class Row:
    """One row, as the :attr:`MILPModel.rows` view shows it."""
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float


class _Namer:
    def __init__(self, used=()):
        self.used: set[str] = set(used)

    def fresh(self, parts: tuple) -> str:
        raw = "_".join(str(p) for p in parts)
        # an ASCII identifier is already its own sanitized form
        base = raw if raw.isascii() and raw.isidentifier() else (
            re.sub(r"[^0-9A-Za-z_]", "_", raw) or "x")
        name, i = base, 1
        while name in self.used:
            i += 1
            name = f"{base}_{i}"
        self.used.add(name)
        return name


@dataclass
class MILPModel:
    # one entry per column
    col_names: list[str] = field(default_factory=list)
    col_kinds: list[str] = field(default_factory=list)
    col_lower: list[float] = field(default_factory=list)
    col_upper: list[float] = field(default_factory=list)
    col_cost: list[float] = field(default_factory=list)
    objective_constant: float = 0.0
    # row i holds the entries row_index/row_value[row_start[i]:row_start[i + 1]]
    row_start: list[int] = field(default_factory=lambda: [0])
    row_index: list[int] = field(default_factory=list)
    row_value: list[float] = field(default_factory=list)
    row_lower: list[float] = field(default_factory=list)
    row_upper: list[float] = field(default_factory=list)
    row_labels: list[tuple] = field(default_factory=list)  # name parts, family first
    _namer: _Namer = field(default_factory=_Namer, repr=False, compare=False)

    def add_column(self, kind: str, lb: float, ub: float, *label) -> int:
        """Append a column named from ``label``; returns its index."""
        self.col_names.append(self._namer.fresh(label))
        self.col_kinds.append(kind)
        self.col_lower.append(float(lb))
        self.col_upper.append(float(ub))
        self.col_cost.append(0.0)
        return len(self.col_names) - 1

    def add_row(self, index, value, sense: str, rhs: float, *label) -> None:
        """Append the row ``sum(value[e] * x[index[e]]) sense rhs``, its
        entries in the order given."""
        if sense not in _SENSES:
            raise InternalConsistencyError(f"unknown row sense {sense!r}")
        rhs = float(rhs)
        self.row_lower.append(-math.inf if sense == "<=" else rhs)
        self.row_upper.append(math.inf if sense == ">=" else rhs)
        self.row_index.extend(index)
        self.row_value.extend(value)
        self.row_start.append(len(self.row_index))
        self.row_labels.append(label)

    def validate(self) -> None:
        """Raise InternalConsistencyError unless HiGHS can take the model
        as it stands: unique column names, every column list and every
        row entry within the columns, binaries on [0, 1], and finite,
        ordered bounds."""
        n = len(self.col_names)
        if len(set(self.col_names)) != n:
            raise InternalConsistencyError("duplicate column names")
        for what, values in (("kinds", self.col_kinds), ("lower bounds", self.col_lower),
                             ("upper bounds", self.col_upper), ("objective", self.col_cost)):
            if len(values) != n:
                raise InternalConsistencyError(
                    f"{len(values)} column {what} for {n} columns")
        if self.row_index and (min(self.row_index) < 0 or max(self.row_index) >= n):
            raise InternalConsistencyError(f"a row references a column outside 0..{n - 1}")
        for name, kind, lb, ub in zip(self.col_names, self.col_kinds,
                                      self.col_lower, self.col_upper):
            if kind == BINARY and (lb, ub) != (0.0, 1.0):
                raise InternalConsistencyError(f"binary {name} must have bounds [0, 1]")
            if kind not in (BINARY, CONTINUOUS):
                raise InternalConsistencyError(f"column {name}: unknown kind {kind!r}")
            if not lb <= ub or lb == -math.inf or ub == math.inf:
                raise InternalConsistencyError(
                    f"column {name}: bounds must be finite and ordered")

    def row_names(self) -> list[str]:
        """Each row's name, made from its label; a name already taken, by a
        column or an earlier row, gets a numbered suffix."""
        namer = _Namer(self.col_names)
        return [namer.fresh(label) for label in self.row_labels]

    @property
    def rows(self) -> list[Row]:
        names, index, value, start = self.col_names, self.row_index, self.row_value, self.row_start
        out = []
        for i, (name, lo, up) in enumerate(zip(self.row_names(), self.row_lower, self.row_upper)):
            coeffs = {names[j]: float(v)
                      for j, v in zip(index[start[i]:start[i + 1]], value[start[i]:start[i + 1]])}
            if lo == up:
                out.append(Row(name, coeffs, "=", lo))
            elif lo == -math.inf:
                out.append(Row(name, coeffs, "<=", up))
            else:
                out.append(Row(name, coeffs, ">=", lo))
        return out


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "timeout"
    values: list[float] = field(default_factory=list)  # by column; empty without one
    objective_value: float | None = None
    stats: dict = field(default_factory=dict)
