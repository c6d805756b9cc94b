import ast
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rankrefine.errors import InternalConsistencyError
from rankrefine.milp import solver
from rankrefine.milp.model import BINARY, CONTINUOUS, MILPModel, Row, Variable
from rankrefine.milp.solver import SolveOptions, solve, solve_lp_relaxation


def _random_model(rng, n_bin, n_cont):
    variables = [Variable(f"b{i}", BINARY, 0.0, 1.0) for i in range(n_bin)]
    for i in range(n_cont):
        lo = rng.randint(-3, 0)
        variables.append(Variable(f"x{i}", CONTINUOUS, float(lo),
                                  float(lo + rng.randint(1, 8))))
    names = [v.name for v in variables]
    rows = []
    for j in range(rng.randint(1, 2 + len(names))):
        picked = rng.sample(names, rng.randint(1, len(names)))
        coeffs = {n: float(rng.randint(-4, 4)) for n in picked}
        coeffs = {n: c for n, c in coeffs.items() if c} or {picked[0]: 1.0}
        bound = sum(max(c, 0.0) for c in coeffs.values())
        rows.append(Row(f"r{j}", coeffs, rng.choice(["<=", ">="]),
                        float(rng.randint(-2, max(1, int(bound))))))
    objective = {n: float(rng.randint(-5, 5)) for n in names}
    return MILPModel(variables=variables, rows=rows, objective=objective)


def _lp_under_fixed_binaries(model, pattern):
    """LP with the binaries pinned to the given 0/1 pattern."""
    fixed = dict(zip((v.name for v in model.binaries), pattern))
    variables = []
    for v in model.variables:
        if v.name in fixed:
            variables.append(Variable(v.name, CONTINUOUS,
                                      float(fixed[v.name]), float(fixed[v.name])))
        else:
            variables.append(v)
    return MILPModel(variables=variables, rows=model.rows,
                     objective=model.objective,
                     objective_constant=model.objective_constant)


def brute_force(model):
    """Enumerate every binary pattern; solve the continuous remainder by LP
    (or plain evaluation when the model is purely binary)."""
    bin_names = [v.name for v in model.binaries]
    cont = [v for v in model.variables if v.kind == CONTINUOUS]
    best = None
    for pattern in itertools.product((0, 1), repeat=len(bin_names)):
        if not cont:
            assign = dict(zip(bin_names, pattern))
            ok = True
            for row in model.rows:
                lhs = sum(c * assign[n] for n, c in row.coeffs.items())
                if row.sense == "<=" and lhs > row.rhs + 1e-9:
                    ok = False
                elif row.sense == ">=" and lhs < row.rhs - 1e-9:
                    ok = False
                elif row.sense == "=" and abs(lhs - row.rhs) > 1e-9:
                    ok = False
                if not ok:
                    break
            if ok:
                val = model.objective_constant + sum(
                    c * assign[n] for n, c in model.objective.items())
                if best is None or val < best - 1e-12:
                    best = val
        else:
            sol = solve_lp_relaxation(_lp_under_fixed_binaries(model, pattern))
            if sol.status == "optimal" and (best is None or
                                            sol.objective_value < best - 1e-12):
                best = sol.objective_value
    return best


def test_solver_matches_brute_force_pure_binary():
    rng = random.Random(3)
    for trial in range(60):
        model = _random_model(rng, n_bin=rng.randint(1, 9), n_cont=0)
        want = brute_force(model)
        sol = solve(model)
        if want is None:
            assert sol.status == "infeasible", trial
        else:
            assert sol.status == "optimal", trial
            assert math.isclose(sol.objective_value, want, abs_tol=1e-6), trial


def test_solver_matches_brute_force_mixed():
    rng = random.Random(4)
    for trial in range(25):
        model = _random_model(rng, n_bin=rng.randint(1, 6),
                              n_cont=rng.randint(1, 3))
        want = brute_force(model)
        sol = solve(model)
        if want is None:
            assert sol.status == "infeasible", trial
        else:
            assert sol.status == "optimal", trial
            assert math.isclose(sol.objective_value, want, abs_tol=1e-6), trial


def test_relaxation_bounds_the_integer_optimum():
    rng = random.Random(5)
    for _ in range(30):
        model = _random_model(rng, n_bin=rng.randint(1, 7),
                              n_cont=rng.randint(0, 2))
        relaxed = solve_lp_relaxation(model)
        integral = solve(model)
        if integral.status == "optimal":
            assert relaxed.status == "optimal"
            assert relaxed.objective_value <= integral.objective_value + 1e-6


def test_integral_assignment_satisfies_rows():
    rng = random.Random(6)
    for _ in range(20):
        model = _random_model(rng, n_bin=rng.randint(1, 6),
                              n_cont=rng.randint(0, 2))
        sol = solve(model)
        if sol.status != "optimal":
            continue
        for v in model.binaries:
            x = sol.value(v.name)
            assert abs(x - round(x)) <= 1e-6
        for row in model.rows:
            lhs = sum(c * sol.value(n) for n, c in row.coeffs.items())
            if row.sense == "<=":
                assert lhs <= row.rhs + 1e-6
            elif row.sense == ">=":
                assert lhs >= row.rhs - 1e-6
            else:
                assert abs(lhs - row.rhs) <= 1e-6


def test_deterministic_resolve():
    rng = random.Random(8)
    model = _random_model(rng, n_bin=6, n_cont=2)
    first = solve(model)
    second = solve(model)
    assert first.status == second.status
    if first.status == "optimal":
        assert first.objective_value == second.objective_value
        assert first.assignment == second.assignment


def _knapsack(n=30, seed=1):
    """Three-row multi-knapsack that HiGHS cannot close at the root node."""
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(n)]
    rows = [Row(f"k{j}", {b: float(rng.randint(5, 40)) for b in names}, "<=",
                float(10 * n)) for j in range(3)]
    return MILPModel(variables=[Variable(b, BINARY, 0.0, 1.0) for b in names],
                     rows=rows,
                     objective={b: -float(rng.randint(5, 40)) for b in names})


def _satisfies_rows(model, sol):
    for row in model.rows:
        lhs = sum(c * sol.value(n) for n, c in row.coeffs.items())
        if row.sense == "<=" and lhs > row.rhs + 1e-6:
            return False
        if row.sense == ">=" and lhs < row.rhs - 1e-6:
            return False
        if row.sense == "=" and abs(lhs - row.rhs) > 1e-6:
            return False
    return True


def test_stats_reported():
    rng = random.Random(9)
    sol = solve(_random_model(rng, n_bin=5, n_cont=1))
    assert {"nodes", "mip_gap", "dual_bound", "wall_s"} <= set(sol.stats)
    assert "lp_iterations" not in sol.stats
    assert sol.stats["wall_s"] >= 0.0
    branched = solve(_knapsack())
    assert branched.status == "optimal"
    assert branched.stats["nodes"] >= 1
    assert branched.stats["mip_gap"] == 0.0
    assert math.isclose(branched.stats["dual_bound"], branched.objective_value,
                        abs_tol=1e-6)


def test_timeout_returns_best_incumbent_or_timeout():
    rng = random.Random(10)
    model = _random_model(rng, n_bin=10, n_cont=2)
    sol = solve(model, SolveOptions(timeout_s=0.0))
    assert sol.status in ("timeout", "infeasible", "optimal")


def test_node_limit_keeps_the_incumbent():
    model = _knapsack()
    full = solve(model)
    capped = solve(model, SolveOptions(node_limit=1))
    assert capped.status == "timeout"
    assert capped.assignment, "HiGHS finds an incumbent before the first branch"
    assert capped.objective_value >= full.objective_value - 1e-6
    assert capped.stats["dual_bound"] <= full.objective_value + 1e-6
    assert all(capped.value(v.name) in (0.0, 1.0) for v in model.binaries)
    assert _satisfies_rows(model, capped)


@pytest.mark.parametrize("options", [SolveOptions(node_limit=0),
                                     SolveOptions(timeout_s=0.0)])
def test_limit_without_incumbent_is_timeout(options):
    sol = solve(_knapsack(), options)
    assert sol.status == "timeout"
    assert sol.assignment == {}
    assert sol.objective_value is None


class _StubbedStatus:
    """A loaded HiGHS whose run ends in ``status``."""

    def __init__(self, highs, status):
        self._highs, self._status = highs, status

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        return self._status


# a valid model has finite bounds, so HiGHS cannot reach these by itself
@pytest.mark.parametrize("status", ["kUnbounded", "kUnboundedOrInfeasible", "kNotset"])
def test_unexpected_highs_outcome_raises(monkeypatch, status):
    load = solver._highs
    stubbed = getattr(solver.highspy.HighsModelStatus, status)
    monkeypatch.setattr(solver, "_highs",
                        lambda *args, **kw: _StubbedStatus(load(*args, **kw), stubbed))
    with pytest.raises(InternalConsistencyError, match="HiGHS ended with model status"):
        solve(_knapsack(n=4))


def test_highs_bindings_are_imported_in_one_module():
    """scipy's HiGHS bindings are private to scipy, so one module loads them,
    by an import statement or by their module name."""
    src = Path(solver.__file__).resolve().parents[1]
    importers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(n.startswith("scipy.optimize._highspy") for n in names):
                importers.append(path.relative_to(src).as_posix())
    assert importers == ["milp/solver.py"]


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    src = Path(solver.__file__).resolve().parents[2]
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import rankrefine\n"
        "from rankrefine.milp import solver\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _core\n"
        "print(json.dumps([before, _core is solver.highspy, solver.linprog is linprog]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True)
    # the bindings are one module object, shared with scipy once it loads
    assert json.loads(out.stdout) == [False, True, True]
