"""Exact MILP solving through HiGHS (``scipy.optimize.milp``).

:func:`solve` hands the whole model to HiGHS's branch and cut in one call.
The relative gap is pinned to zero, so "optimal" means optimal rather than
within HiGHS's default 1e-4.  The outcome maps onto :class:`Solution`:
``optimal``; ``infeasible``; or ``timeout`` when a time or node limit stops
the search, carrying the best integral solution found so far, if any.  Any
other HiGHS outcome raises :class:`InternalConsistencyError`, so it can
never be mistaken for "no refinement exists".

:func:`solve_lp_relaxation` solves the same rows with the binaries relaxed
to [0, 1] through ``linprog``.  Both read the model through one CSR builder.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_array, vstack

from ..errors import InternalConsistencyError
from .model import BINARY, MILPModel, Solution

# scipy's milp status codes, and the raw HiGHS model status that scipy
# passes through as "not recognized" when the node limit stops the search.
_OPTIMAL, _LIMIT, _INFEASIBLE = 0, 1, 2
_HIGHS_SOLUTION_LIMIT = 16


@dataclass
class SolveOptions:
    timeout_s: float | None = None
    node_limit: int | None = None


def _arrays(model: MILPModel):
    """Objective, CSR row matrix, row bounds (lo <= A x <= hi), variable bounds."""
    index = model.var_index()
    c = np.zeros(len(index))
    for name, coef in model.objective.items():
        c[index[name]] = coef
    indptr, indices, data = [0], [], []
    for row in model.rows:
        indices.extend(index[name] for name in row.coeffs)
        data.extend(row.coeffs.values())
        indptr.append(len(indices))
    a = csr_array((np.array(data, dtype=float), np.array(indices, dtype=np.int32), indptr),
                  shape=(len(model.rows), len(index)))
    rhs = np.array([row.rhs for row in model.rows], dtype=float)
    senses = [row.sense for row in model.rows]
    lo = np.where([s == "<=" for s in senses], -np.inf, rhs)
    hi = np.where([s == ">=" for s in senses], np.inf, rhs)
    bounds = Bounds([v.lb for v in model.variables], [v.ub for v in model.variables])
    return c, a, lo, hi, bounds


def solve_lp_relaxation(model: MILPModel) -> Solution:
    """Solve the LP relaxation of ``model`` (binaries relaxed to [0, 1])."""
    c, a, lo, hi, bounds = _arrays(model)
    eq = lo == hi
    upper, lower = ~eq & (hi < np.inf), ~eq & (lo > -np.inf)
    res = linprog(
        c,
        A_ub=vstack([a[upper], -a[lower]]),
        b_ub=np.concatenate([hi[upper], -lo[lower]]),
        A_eq=a[eq],
        b_eq=hi[eq],
        bounds=np.column_stack([bounds.lb, bounds.ub]),
        method="highs",
    )
    if not res.success:
        return Solution(status="infeasible", stats={"lp_status": res.status})
    return Solution(
        status="optimal",
        assignment={v.name: float(x) for v, x in zip(model.variables, res.x)},
        objective_value=float(res.fun) + model.objective_constant,
        stats={"lp_iterations": int(getattr(res, "nit", 0))},
    )


def _status(res) -> str:
    if res.status == _OPTIMAL and res.x is not None:
        return "optimal"
    if res.status == _INFEASIBLE:
        return "infeasible"
    raw = re.search(r"HiGHS Status (\d+)", res.message or "")
    if res.status == _LIMIT or (raw and int(raw.group(1)) == _HIGHS_SOLUTION_LIMIT):
        return "timeout"
    raise InternalConsistencyError(f"HiGHS ended with scipy status {res.status}: {res.message}")


def _finite(x) -> float | None:
    """HiGHS's gap and bound as JSON-safe floats; None when unknown or infinite."""
    return float(x) if x is not None and math.isfinite(x) else None


def solve(model: MILPModel, options: SolveOptions | None = None) -> Solution:
    """Minimize ``model`` exactly.  Returns status optimal/infeasible/timeout."""
    options = options or SolveOptions()
    start = time.monotonic()
    model.validate()
    c, a, lo, hi, bounds = _arrays(model)
    limits = {"time_limit": options.timeout_s, "node_limit": options.node_limit}
    res = milp(
        c,
        integrality=[v.kind == BINARY for v in model.variables],
        bounds=bounds,
        constraints=LinearConstraint(a, lo, hi),
        options={"mip_rel_gap": 0.0, **{k: v for k, v in limits.items() if v is not None}},
    )
    status = _status(res)
    dual_bound = _finite(res.get("mip_dual_bound"))
    stats = {
        "nodes": int(res.get("mip_node_count") or 0),
        "mip_gap": _finite(res.get("mip_gap")),
        "dual_bound": None if dual_bound is None else dual_bound + model.objective_constant,
        "wall_s": time.monotonic() - start,
    }
    if res.x is None:
        return Solution(status=status, stats=stats)
    assignment = {
        v.name: float(round(x)) if v.kind == BINARY else float(x)
        for v, x in zip(model.variables, res.x)
    }
    return Solution(
        status=status,
        assignment=assignment,
        objective_value=float(res.fun) + model.objective_constant,
        stats=stats,
    )
