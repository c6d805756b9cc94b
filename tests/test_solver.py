import itertools
import math
import random

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

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


@pytest.mark.parametrize("status, message", [
    (3, "The problem is unbounded. (HiGHS Status 10: Unbounded)"),
    (4, "The problem is unbounded or infeasible. (HiGHS Status 9: ...)"),
    (4, "HiGHS did not provide a status code. (HiGHS Status None: None)"),
])
def test_unexpected_highs_outcome_raises(monkeypatch, status, message):
    def fake_milp(*args, **kwargs):
        return OptimizeResult(status=status, message=message, x=None, fun=None,
                              mip_node_count=None, mip_gap=None, mip_dual_bound=None)

    monkeypatch.setattr(solver, "milp", fake_milp)
    with pytest.raises(InternalConsistencyError, match="HiGHS"):
        solve(_knapsack(n=4))
