"""Mixed-integer linear program container: named, bounded variables, named
rows over them, and a linear objective with a constant term.

:mod:`rankrefine.milp.solver` loads it into HiGHS to solve it or to write
it in LP form (``--lp-dump``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

BINARY = "binary"
CONTINUOUS = "continuous"

_SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float

    def __post_init__(self):
        if self.kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == BINARY and (self.lb, self.ub) != (0.0, 1.0):
            raise ValueError(f"binary {self.name} must have bounds [0, 1]")
        if not (self.lb <= self.ub) or self.lb == float("-inf") or self.ub == float("inf"):
            raise ValueError(f"variable {self.name}: bounds must be finite and ordered")


@dataclass(frozen=True)
class Row:
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"unknown row sense {self.sense!r}")


@dataclass
class MILPModel:
    variables: list[Variable] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    objective_constant: float = 0.0

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        declared = set(names)
        for row in self.rows:
            undeclared = set(row.coeffs) - declared
            if undeclared:
                raise ValueError(f"row {row.name} references undeclared {sorted(undeclared)}")
        undeclared = set(self.objective) - declared
        if undeclared:
            raise ValueError(f"objective references undeclared {sorted(undeclared)}")

    @property
    def binaries(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == BINARY]

    def var_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible" | "timeout"
    assignment: dict[str, float] = field(default_factory=dict)
    objective_value: float | None = None
    stats: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        return self.assignment[name]
