"""Exact MILP solving through HiGHS's own bindings, which ship with scipy.

One loader, :func:`_highs`, validates a :class:`MILPModel` and hands it to
a silenced HiGHS; :func:`solve`, :func:`solve_lp_relaxation` and
:func:`write_lp` all go through it.

:func:`solve` runs HiGHS's branch and cut once.  The relative gap is pinned
to zero, so "optimal" means optimal rather than within HiGHS's default
1e-4.  The outcome maps onto :class:`Solution`: ``optimal``;
``infeasible``; or ``timeout`` when a time or node limit stops the search,
carrying the best integral solution found so far, if any.  Any other HiGHS
outcome raises :class:`InternalConsistencyError`, so it can never be
mistaken for "no refinement exists".

:func:`solve_lp_relaxation` solves the same rows with the binaries relaxed
to [0, 1], and :func:`write_lp` writes the model with HiGHS's LP writer.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import scipy

from ..errors import InternalConsistencyError
from .model import BINARY, MILPModel, Solution

_HIGHSPY = "scipy.optimize._highspy._core"


def _load_highspy():
    """scipy's HiGHS bindings, loaded from their own file.

    ``import scipy.optimize._highspy`` would first run ``scipy.optimize``'s
    ``__init__``, which loads linalg, sparse and special: about 0.6 s and
    45 MB that nothing here uses.  The module is registered under its own
    name, so a later ``import scipy.optimize`` reuses it.  The bindings are
    private to scipy, so this module is the one place that loads them."""
    if _HIGHSPY in sys.modules:
        return sys.modules[_HIGHSPY]
    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_HIGHSPY)
    if spec is None:
        raise ImportError(f"scipy's HiGHS bindings (_core) not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHSPY] = module
    spec.loader.exec_module(module)
    return module


highspy = _load_highspy()


def __getattr__(name: str):
    # not called here; kept importable because perfbench's traced run wraps
    # it, and loaded on demand because it brings in all of scipy.optimize
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

_STATUS = {
    highspy.HighsModelStatus.kOptimal: "optimal",
    highspy.HighsModelStatus.kInfeasible: "infeasible",
    highspy.HighsModelStatus.kTimeLimit: "timeout",
    highspy.HighsModelStatus.kSolutionLimit: "timeout",  # the node limit
}


@dataclass
class SolveOptions:
    timeout_s: float | None = None
    node_limit: int | None = None


def _highs(model: MILPModel, integral: bool = True) -> highspy._Highs:
    """A silenced HiGHS holding ``model``, its binaries relaxed to [0, 1]
    unless ``integral``."""
    model.validate()
    index = model.var_index()
    lp = highspy.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(model.variables)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(model.rows)
    lp.col_names_ = [v.name for v in model.variables]
    lp.col_cost_ = [model.objective.get(v.name, 0.0) for v in model.variables]
    lp.offset_ = model.objective_constant
    lp.col_lower_ = [v.lb for v in model.variables]
    lp.col_upper_ = [v.ub for v in model.variables]
    if integral:
        kinds = {BINARY: highspy.HighsVarType.kInteger}
        lp.integrality_ = [kinds.get(v.kind, highspy.HighsVarType.kContinuous)
                           for v in model.variables]
    lp.row_names_ = [row.name for row in model.rows]
    lp.row_lower_ = [-math.inf if row.sense == "<=" else row.rhs for row in model.rows]
    lp.row_upper_ = [math.inf if row.sense == ">=" else row.rhs for row in model.rows]
    # the bindings return copies of list fields, so each is assigned whole
    start, columns, values = [0], [], []
    for row in model.rows:
        columns.extend(index[name] for name in row.coeffs)
        values.extend(row.coeffs.values())
        start.append(len(columns))
    lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, columns, values
    h = highspy._Highs()
    h.setOptionValue("output_flag", False)
    if h.passModel(lp) == highspy.HighsStatus.kError:
        raise InternalConsistencyError("HiGHS rejected the model")
    return h


def _assignment(model: MILPModel, h: highspy._Highs) -> dict[str, float]:
    return {v.name: float(round(x)) if v.kind == BINARY else float(x)
            for v, x in zip(model.variables, h.getSolution().col_value)}


def solve_lp_relaxation(model: MILPModel) -> Solution:
    """Solve the LP relaxation of ``model`` (binaries relaxed to [0, 1])."""
    h = _highs(model, integral=False)
    h.run()
    status = h.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        return Solution(status="infeasible",
                        stats={"lp_status": h.modelStatusToString(status)})
    info = h.getInfo()
    return Solution(
        status="optimal",
        assignment=_assignment(model, h),
        objective_value=info.objective_function_value,
        stats={"lp_iterations": info.simplex_iteration_count},
    )


def _finite(x: float) -> float | None:
    """HiGHS's gap and bound as JSON-safe floats; None when infinite."""
    return x if math.isfinite(x) else None


def solve(model: MILPModel, options: SolveOptions | None = None) -> Solution:
    """Minimize ``model`` exactly.  Returns status optimal/infeasible/timeout."""
    options = options or SolveOptions()
    start = time.monotonic()
    h = _highs(model)
    h.setOptionValue("mip_rel_gap", 0.0)
    if options.timeout_s is not None:
        h.setOptionValue("time_limit", float(options.timeout_s))
    if options.node_limit is not None:
        h.setOptionValue("mip_max_nodes", int(options.node_limit))
    h.run()
    model_status = h.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise InternalConsistencyError(
            f"HiGHS ended with model status {h.modelStatusToString(model_status)}")
    info = h.getInfo()
    # without integer columns HiGHS solves an LP and leaves its MIP counters
    # unset: -1 nodes and a dual bound of 0
    mip = info.mip_node_count >= 0
    stats = {
        "nodes": max(info.mip_node_count, 0),
        "mip_gap": _finite(info.mip_gap),
        "dual_bound": _finite(info.mip_dual_bound) if mip else None,
        "wall_s": time.monotonic() - start,
    }
    if info.primal_solution_status != highspy.SolutionStatus.kSolutionStatusFeasible:
        return Solution(status=status, stats=stats)
    return Solution(
        status=status,
        assignment=_assignment(model, h),
        objective_value=info.objective_function_value,
        stats=stats,
    )


def write_lp(model: MILPModel, path: str) -> None:
    """Write ``model`` to ``path`` with HiGHS's LP writer (``--lp-dump``).

    HiGHS picks the format from the file name, so it writes to a ``.lp``
    file first, whatever ``path`` is called."""
    with tempfile.TemporaryDirectory() as tmp:
        lp_file = os.path.join(tmp, "model.lp")
        if _highs(model).writeModel(lp_file) == highspy.HighsStatus.kError:
            raise InternalConsistencyError("HiGHS could not write the model")
        shutil.copyfile(lp_file, path)
