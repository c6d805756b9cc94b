import ast
import copy
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rankrefine.cli import EXIT_INTERNAL, EXIT_REFINED
from rankrefine.errors import InternalConsistencyError
from rankrefine.milp import solver
from rankrefine.milp.model import BINARY, CONTINUOUS, MILPModel
from rankrefine.milp.solver import SolveOptions, solve, solve_lp_relaxation


def _random_model(rng, n_bin, n_cont):
    model = MILPModel()
    cols = [model.add_column(BINARY, 0.0, 1.0, f"b{i}") for i in range(n_bin)]
    for i in range(n_cont):
        lo = rng.randint(-3, 0)
        cols.append(model.add_column(CONTINUOUS, float(lo),
                                     float(lo + rng.randint(1, 8)), f"x{i}"))
    for j in range(rng.randint(1, 2 + len(cols))):
        picked = rng.sample(cols, rng.randint(1, len(cols)))
        coeffs = {n: float(rng.randint(-4, 4)) for n in picked}
        coeffs = {n: c for n, c in coeffs.items() if c} or {picked[0]: 1.0}
        bound = sum(max(c, 0.0) for c in coeffs.values())
        model.add_row(coeffs, coeffs.values(), rng.choice(["<=", ">="]),
                      float(rng.randint(-2, max(1, int(bound)))), f"r{j}")
    for j in cols:
        model.col_cost[j] = float(rng.randint(-5, 5))
    return model


def _binaries(model):
    return [j for j, kind in enumerate(model.col_kinds) if kind == BINARY]


def _by_name(model, sol):
    """The solution's values keyed by column name, as the rows view names them."""
    return dict(zip(model.col_names, sol.values))


def _lp_under_fixed_binaries(model, pattern):
    """LP with the binaries pinned to the given 0/1 pattern."""
    fixed = copy.deepcopy(model)
    binaries = [j for j, kind in enumerate(model.col_kinds) if kind == BINARY]
    for j, x in zip(binaries, pattern):
        fixed.col_kinds[j] = CONTINUOUS
        fixed.col_lower[j] = fixed.col_upper[j] = float(x)
    return fixed


def brute_force(model):
    """Enumerate every binary pattern; solve the continuous remainder by LP
    (or plain evaluation when the model is purely binary)."""
    bin_names = [model.col_names[j] for j in _binaries(model)]
    cont = CONTINUOUS in model.col_kinds
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
                    c * assign[n] for n, c in zip(model.col_names, model.col_cost))
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
        for j in _binaries(model):
            x = sol.values[j]
            assert abs(x - round(x)) <= 1e-6
        value = _by_name(model, sol)
        for row in model.rows:
            lhs = sum(c * value[n] for n, c in row.coeffs.items())
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
        assert first.values == second.values


def _knapsack(n=30, seed=1):
    """Three-row multi-knapsack that HiGHS cannot close at the root node."""
    rng = random.Random(seed)
    model = MILPModel()
    cols = [model.add_column(BINARY, 0.0, 1.0, f"b{i}") for i in range(n)]
    for j in range(3):
        model.add_row(cols, [float(rng.randint(5, 40)) for _ in cols], "<=",
                      float(10 * n), f"k{j}")
    for j in cols:
        model.col_cost[j] = -float(rng.randint(5, 40))
    return model


def _satisfies_rows(model, sol):
    value = _by_name(model, sol)
    for row in model.rows:
        lhs = sum(c * value[n] for n, c in row.coeffs.items())
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
    assert {"nodes", "lp_iterations", "mip_gap", "dual_bound"} <= set(sol.stats)
    branched = solve(_knapsack())
    assert branched.status == "optimal"
    assert branched.stats["nodes"] >= 1
    assert branched.stats["lp_iterations"] > 0
    assert solve(_knapsack()).stats["lp_iterations"] == branched.stats["lp_iterations"]
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
    assert capped.values, "HiGHS finds an incumbent before the first branch"
    assert capped.objective_value >= full.objective_value - 1e-6
    assert capped.stats["dual_bound"] <= full.objective_value + 1e-6
    assert all(capped.values[j] in (0.0, 1.0) for j in _binaries(model))
    assert _satisfies_rows(model, capped)


@pytest.mark.parametrize("options", [SolveOptions(node_limit=0),
                                     SolveOptions(timeout_s=0.0)])
def test_limit_without_incumbent_is_timeout(options):
    sol = solve(_knapsack(), options)
    assert sol.status == "timeout"
    assert sol.values == []
    assert sol.objective_value is None


@pytest.mark.parametrize("options", [SolveOptions(timeout_s=-1.0),
                                     SolveOptions(node_limit=-1)])
def test_an_option_highs_rejects_raises(options):
    with pytest.raises(InternalConsistencyError, match="HiGHS rejected option"):
        solve(_knapsack(), options)


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


_SRC = Path(solver.__file__).resolve().parents[2]
_SCENARIOS = _SRC.parent / "scenarios"
_BINDINGS = "scipy.optimize._highspy._core"


def _fresh(body: str, *argv: str) -> subprocess.CompletedProcess:
    """``body`` run in a new interpreter that imports ``rankrefine`` from
    this tree."""
    script = f"import json, sys\nsys.path.insert(0, {str(_SRC)!r})\n{body}"
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120)


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    out = _fresh(
        "import rankrefine\n"
        "from rankrefine.milp import solver\n"
        "before = ['scipy' in sys.modules, 'scipy.optimize' in sys.modules]\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _core\n"
        "print(json.dumps([*before, _core is solver.highspy, solver.linprog is linprog]))\n")
    assert out.returncode == 0, out.stderr
    # the bindings are one module object, shared with scipy once it loads
    assert json.loads(out.stdout) == [False, False, True, True]


# the scholarship scenario, loaded and parsed in a fresh interpreter
_SCHOLARSHIP = (
    "from fractions import Fraction\n"
    "from pathlib import Path\n"
    "import rankrefine as rr\n"
    "from rankrefine.milp import solver\n"
    f"scenarios = Path({str(_SCENARIOS)!r})\n"
    "db = rr.Database()\n"
    "for name in ('Students', 'Activities'):\n"
    "    db.add(rr.load_csv(scenarios / 'data' / f'{name.lower()}.csv', name=name))\n"
    "query = rr.parse_query((scenarios / 'scholarship' / 'query.sql').read_text())\n"
    "cs = rr.parse_constraints((scenarios / 'scholarship' / 'constraints.json').read_text())\n")


def test_numpy_and_the_bindings_load_at_the_first_solve():
    out = _fresh(
        _SCHOLARSHIP +
        "def step(epsilon):\n"
        "    r = rr.run(rr.RunConfig(query, db, cs, Fraction(epsilon), rr.DistanceKind('pred')))\n"
        f"    return [str(r.distance), 'numpy' in sys.modules, {_BINDINGS!r} in sys.modules]\n"
        "steps = [step(1), step(0)]\n"
        f"print(json.dumps([*steps, solver.highspy is sys.modules[{_BINDINGS!r}]]))\n")
    assert out.returncode == 0, out.stderr
    # ε 1 is met by the original query, so nothing is solved; ε 0 solves
    assert json.loads(out.stdout) == [["0", False, False], ["1/2", True, True], True]


def test_the_first_solve_reports_the_solver_load_as_set_up():
    """The engine loads numpy and the bindings before its solve clock starts;
    here the first load sleeps 0.2 s on top."""
    out = _fresh(
        _SCHOLARSHIP +
        "import time\n"
        "load, calls = solver.bindings, []\n"
        "def slow():\n"
        "    if not calls:\n"
        "        time.sleep(0.2)\n"
        "    calls.append(1)\n"
        "    return load()\n"
        "solver.bindings = slow\n"
        "r = rr.run(rr.RunConfig(query, db, cs, Fraction(0), rr.DistanceKind('pred')))\n"
        "print(json.dumps([str(r.distance), r.timing_ms['setup_ms'], r.timing_ms['solve_ms']]))\n")
    assert out.returncode == 0, out.stderr
    distance, setup_ms, solve_ms = json.loads(out.stdout)
    assert distance == "1/2" and setup_ms >= 200 and solve_ms < 200


def test_concurrent_first_solves_load_the_bindings_once():
    out = _fresh(
        "import importlib.util, threading\n"
        "from rankrefine.milp import solver\n"
        "from rankrefine.milp.model import BINARY, MILPModel\n"
        "made = []  # every module object made under the bindings' name\n"
        "module_from_spec = importlib.util.module_from_spec\n"
        "def counted(spec):\n"
        "    module = module_from_spec(spec)\n"
        f"    if spec.name == {_BINDINGS!r}:\n"
        "        made.append(module)\n"
        "    return module\n"
        "importlib.util.module_from_spec = counted\n"
        "model = MILPModel()\n"
        "cols = [model.add_column(BINARY, 0.0, 1.0, f'b{i}') for i in range(4)]\n"
        "model.add_row(cols, [3.0, 4.0, 5.0, 6.0], '<=', 10.0, 'k')\n"
        "model.col_cost[:] = [-5.0, -6.0, -7.0, -9.0]\n"
        "start, statuses = threading.Barrier(2), []\n"
        "def first_solve():\n"
        "    start.wait()\n"
        "    statuses.append(solver.solve(model).status)\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=first_solve) for _ in range(2)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "print(json.dumps([[t.is_alive() for t in threads], statuses, len(made),\n"
        "                  made[:1] == [solver.highspy]]))\n")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[False, False], ["optimal", "optimal"], 1, True]


def test_missing_bindings_fail_only_solving_runs_as_internal_errors():
    """Without scipy, a run that needs no solve still answers, and one that
    does exits 4 (internal error), never 1 (invalid input)."""
    def args(epsilon):
        return ["run", "--data", f"Students={_SCENARIOS / 'data' / 'students.csv'}",
                "--data", f"Activities={_SCENARIOS / 'data' / 'activities.csv'}",
                "--query", str(_SCENARIOS / "scholarship" / "query.sql"),
                "--constraints", str(_SCENARIOS / "scholarship" / "constraints.json"),
                "--epsilon", epsilon]

    def without_scipy(epsilon):
        # a None entry makes find_spec("scipy") return None
        return _fresh("sys.modules['scipy'] = None\n"
                      "from rankrefine.cli import main\n"
                      "sys.exit(main(sys.argv[1:]))\n", *args(epsilon))

    def report(text):
        payload = json.loads(text)
        payload.pop("timing_ms")
        return payload

    settled = without_scipy("1")
    assert settled.returncode == EXIT_REFINED, settled.stderr
    with_scipy = _fresh("from rankrefine.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))\n", *args("1"))
    assert with_scipy.returncode == EXIT_REFINED, with_scipy.stderr
    assert report(settled.stdout) == report(with_scipy.stdout)
    solving = without_scipy("0")
    assert solving.returncode == EXIT_INTERNAL
    assert solving.stdout == ""
    assert solving.stderr.startswith("internal error: ImportError")
