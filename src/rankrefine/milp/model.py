"""Mixed-integer linear program container and LP text export.

The LP text form (``--lp-dump``) is a debug surface for cross-checking models
with external solvers such as HiGHS.
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _expr_text(coeffs: dict[str, float], constant: float = 0.0) -> str:
    parts = []
    for name, coef in coeffs.items():
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(coef))} {name}")
    if constant:
        sign = "-" if constant < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(constant))}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def to_lp_text(model: MILPModel) -> str:
    lines = ["Minimize", f" obj: {_expr_text(model.objective, model.objective_constant)}"]
    lines.append("Subject To")
    for row in model.rows:
        lines.append(f" {row.name}: {_expr_text(row.coeffs)} {row.sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == CONTINUOUS:
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {_fmt(v.ub)}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
