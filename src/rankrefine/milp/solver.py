"""Exact MILP solving through HiGHS's own bindings, which ship with scipy.

One loader, :func:`_highs`, validates a :class:`MILPModel` and hands its
column and row lists to a silenced HiGHS as they are; :func:`solve`,
:func:`solve_lp_relaxation` and :func:`write_lp` all go through it.  Numpy and
the bindings (about 60 ms) load at the first :func:`bindings` call, which the
engine makes before its solve clock starts, not at import: a settled request,
invalid input and the naive engines never solve.

:func:`solve` runs HiGHS's branch and cut once.  The relative gap is pinned
to zero, so "optimal" means optimal rather than within HiGHS's default
1e-4.  The feasibility-jump heuristic is off: it costs about 10 ms of CPU
on every solve, even a 10-binary knapsack's, which is much of a refinement
model's solve time.  The outcome maps onto :class:`Solution`: ``optimal``;
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
import sys
import threading
from dataclasses import dataclass

from ..errors import InternalConsistencyError
from .model import BINARY, CONTINUOUS, MILPModel, Solution

_HIGHSPY = "scipy.optimize._highspy._core"

_LOCK = threading.Lock()
_STATUS: dict = {}
_INTEGRALITY: dict = {}


def bindings():
    """scipy's HiGHS bindings, loaded from their own file by the first call,
    which also fills ``_STATUS`` and ``_INTEGRALITY`` from their enums.

    ``import scipy.optimize._highspy`` would first run ``scipy.optimize``'s
    ``__init__``, which loads linalg, sparse and special: about 0.6 s and
    45 MB that nothing here uses.  scipy's own ``__init__`` is not run
    either (1 MB), since only its directory is needed.  The module is
    registered under its own name, so a later ``import scipy.optimize``
    reuses it.  It is registered before its body runs, so the lock keeps a
    second first caller from reading it half built or loading a second copy.
    The bindings are private to scipy, so this module is the one place that
    loads them."""
    with _LOCK:
        if _HIGHSPY not in sys.modules:
            import numpy  # noqa: F401  (the bindings take every list through it)
            package = importlib.util.find_spec("scipy")
            if package is None:
                raise ImportError("scipy is not installed")
            directory = os.path.join(package.submodule_search_locations[0], "optimize", "_highspy")
            finder = importlib.machinery.FileFinder(
                directory,
                (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(_HIGHSPY)
            if spec is None:
                raise ImportError(f"scipy's HiGHS bindings (_core) not found in {directory}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHSPY] = module
            spec.loader.exec_module(module)
        highspy = sys.modules[_HIGHSPY]
        if not _STATUS:
            _STATUS.update({
                highspy.HighsModelStatus.kOptimal: "optimal",
                highspy.HighsModelStatus.kInfeasible: "infeasible",
                highspy.HighsModelStatus.kTimeLimit: "timeout",
                highspy.HighsModelStatus.kSolutionLimit: "timeout",  # the node limit
            })
            _INTEGRALITY.update({BINARY: highspy.HighsVarType.kInteger,
                                 CONTINUOUS: highspy.HighsVarType.kContinuous})
        return highspy


def __getattr__(name: str):
    if name == "highspy":
        return bindings()
    # not called here; kept importable because perfbench's traced run wraps
    # it, and loaded on demand because it brings in all of scipy.optimize
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolveOptions:
    timeout_s: float | None = None
    node_limit: int | None = None


def _highs(model: MILPModel, integral: bool = True,
           row_names: bool = False) -> highspy._Highs:
    """A silenced HiGHS holding ``model``, its binaries relaxed to [0, 1]
    unless ``integral``, its rows named only if ``row_names``."""
    model.validate()
    highspy = bindings()
    lp = highspy.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(model.col_names)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(model.row_lower)
    # the bindings copy each list into HiGHS, so the model's own lists go in
    lp.col_names_ = model.col_names
    lp.col_cost_ = model.col_cost
    lp.offset_ = model.objective_constant
    lp.col_lower_ = model.col_lower
    lp.col_upper_ = model.col_upper
    if integral:
        lp.integrality_ = [_INTEGRALITY[kind] for kind in model.col_kinds]
    if row_names:
        lp.row_names_ = model.row_names()
    lp.row_lower_ = model.row_lower
    lp.row_upper_ = model.row_upper
    lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = model.row_start
    lp.a_matrix_.index_ = model.row_index
    lp.a_matrix_.value_ = model.row_value
    h = highspy._Highs()
    _set_option(h, "output_flag", False)
    if h.passModel(lp) == highspy.HighsStatus.kError:
        raise InternalConsistencyError("HiGHS rejected the model")
    return h


def _set_option(h: highspy._Highs, name: str, value) -> None:
    """Set a HiGHS option; HiGHS keeps the old value of one it rejects."""
    if h.setOptionValue(name, value) == bindings().HighsStatus.kError:
        raise InternalConsistencyError(f"HiGHS rejected option {name} = {value!r}")


def _values(model: MILPModel, h: highspy._Highs) -> list[float]:
    return [float(round(x)) if kind == BINARY else float(x)
            for kind, x in zip(model.col_kinds, h.getSolution().col_value)]


def solve_lp_relaxation(model: MILPModel) -> Solution:
    """Solve the LP relaxation of ``model`` (binaries relaxed to [0, 1])."""
    h = _highs(model, integral=False)
    h.run()
    status = h.getModelStatus()
    if status != bindings().HighsModelStatus.kOptimal:
        return Solution(status="infeasible",
                        stats={"lp_status": h.modelStatusToString(status)})
    info = h.getInfo()
    return Solution(
        status="optimal",
        values=_values(model, h),
        objective_value=info.objective_function_value,
        stats={"lp_iterations": info.simplex_iteration_count},
    )


def _finite(x: float) -> float | None:
    """HiGHS's gap and bound as JSON-safe floats; None when infinite."""
    return x if math.isfinite(x) else None


def solve(model: MILPModel, options: SolveOptions | None = None) -> Solution:
    """Minimize ``model`` exactly.  Returns status optimal/infeasible/timeout."""
    options = options or SolveOptions()
    h = _highs(model)
    _set_option(h, "mip_rel_gap", 0.0)
    _set_option(h, "mip_heuristic_run_feasibility_jump", False)
    if options.timeout_s is not None:
        _set_option(h, "time_limit", float(options.timeout_s))
    if options.node_limit is not None:
        _set_option(h, "mip_max_nodes", int(options.node_limit))
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
        "lp_iterations": info.simplex_iteration_count,
        "mip_gap": _finite(info.mip_gap),
        "dual_bound": _finite(info.mip_dual_bound) if mip else None,
    }
    if info.primal_solution_status != bindings().SolutionStatus.kSolutionStatusFeasible:
        return Solution(status=status, stats=stats)
    return Solution(
        status=status,
        values=_values(model, h),
        objective_value=info.objective_function_value,
        stats=stats,
    )


def write_lp(model: MILPModel, path: str) -> None:
    """Write ``model`` to ``path`` with HiGHS's LP writer (``--lp-dump``).

    HiGHS picks the format from the file name, so it writes to a ``.lp``
    file first, whatever ``path`` is called."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lp_file = os.path.join(tmp, "model.lp")
        if _highs(model, row_names=True).writeModel(lp_file) == bindings().HighsStatus.kError:
            raise InternalConsistencyError("HiGHS could not write the model")
        shutil.copyfile(lp_file, path)
