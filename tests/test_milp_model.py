import math
from fractions import Fraction

import pytest
from conftest import read_lp
from scipy.optimize._highspy import _core as highspy

from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.milp.build import build_model
from rankrefine.milp.model import (
    BINARY,
    CONTINUOUS,
    MILPModel,
    Row,
    Variable,
)
from rankrefine.milp.solver import SolveOptions, solve, solve_lp_relaxation, write_lp


def _small_model():
    return MILPModel(
        variables=[
            Variable("x", CONTINUOUS, 0.0, 10.0),
            Variable("b", BINARY, 0.0, 1.0),
        ],
        rows=[
            Row("lo", {"x": 1.0, "b": -3.0}, ">=", 2.0),
            Row("cap", {"x": 1.0}, "<=", 9.0),
            Row("tie", {"x": 1.0, "b": 1.0}, "=", 6.0),
        ],
        objective={"x": 1.0, "b": -0.5},
        objective_constant=1.25,
    )


def test_validate_accepts_well_formed():
    _small_model().validate()


def test_validate_rejects_duplicate_names():
    m = _small_model()
    m.variables.append(Variable("x", CONTINUOUS, 0.0, 1.0))
    with pytest.raises(ValueError):
        m.validate()


def test_validate_rejects_undeclared_in_row():
    m = _small_model()
    m.rows.append(Row("bad", {"ghost": 1.0}, "<=", 0.0))
    with pytest.raises(ValueError):
        m.validate()


def test_validate_rejects_undeclared_in_objective():
    m = _small_model()
    m.objective["ghost"] = 1.0
    with pytest.raises(ValueError):
        m.validate()


def test_binary_bounds_enforced():
    with pytest.raises(ValueError):
        Variable("b", BINARY, 0.0, 2.0)


def test_infinite_bounds_rejected():
    with pytest.raises(ValueError):
        Variable("x", CONTINUOUS, 0.0, float("inf"))


def test_unknown_sense_rejected():
    with pytest.raises(ValueError):
        Row("r", {"x": 1.0}, "<", 0.0)


@pytest.mark.parametrize("kind", [
    DistanceKind(PRED), DistanceKind(JACCARD, 6), DistanceKind(KENDALL, 6)])
def test_lp_text_reads_back_through_highs(tmp_path, students_db, scholarship_query,
                                          scholarship_constraints, kind):
    built = build_model(scholarship_query, students_db, scholarship_constraints,
                        Fraction(0), kind)
    path = tmp_path / "model.lp"
    write_lp(built.model, path)
    h = read_lp(path)
    assert (h.getNumCol(), h.getNumRow()) == (len(built.model.variables),
                                              len(built.model.rows))
    h.run()
    assert h.getModelStatus() == highspy.HighsModelStatus.kOptimal
    want = solve(built.model).objective_value
    assert h.getInfo().objective_function_value == pytest.approx(want, abs=1e-9)


def test_lp_file_suffix_does_not_change_the_format(tmp_path):
    write_lp(_small_model(), tmp_path / "model.lp")
    write_lp(_small_model(), tmp_path / "model.txt")
    assert (tmp_path / "model.txt").read_text() == (tmp_path / "model.lp").read_text()
    h = read_lp(tmp_path / "model.lp")
    h.run()
    assert h.getInfo().objective_function_value == pytest.approx(
        solve(_small_model()).objective_value, abs=1e-9)


def test_trivial_lp_min_x_at_least_two():
    m = MILPModel(variables=[Variable("x", CONTINUOUS, 0.0, 100.0)],
                  rows=[Row("lo", {"x": 1.0}, ">=", 2.0)],
                  objective={"x": 1.0})
    sol = solve(m)
    assert sol.status == "optimal"
    assert math.isclose(sol.objective_value, 2.0, abs_tol=1e-9)
    assert math.isclose(sol.value("x"), 2.0, abs_tol=1e-9)
    # no binaries, so no branch and bound and no MIP bound to report
    assert (sol.stats["nodes"], sol.stats["mip_gap"], sol.stats["dual_bound"]) == (0, None, None)


def test_objective_constant_carried_through():
    m = MILPModel(variables=[Variable("x", CONTINUOUS, 0.0, 100.0)],
                  rows=[Row("lo", {"x": 1.0}, ">=", 2.0)],
                  objective={"x": 1.0}, objective_constant=5.0)
    sol = solve(m)
    assert math.isclose(sol.objective_value, 7.0, abs_tol=1e-9)


def test_infeasible_pair():
    m = MILPModel(variables=[Variable("x", CONTINUOUS, 0.0, 10.0)],
                  rows=[Row("lo", {"x": 1.0}, ">=", 6.0),
                        Row("hi", {"x": 1.0}, "<=", 5.0)],
                  objective={"x": 1.0})
    assert solve(m).status == "infeasible"
    assert solve_lp_relaxation(m).status == "infeasible"


def test_binary_forced_by_row():
    m = MILPModel(variables=[Variable("b", BINARY, 0.0, 1.0)],
                  rows=[Row("lo", {"b": 2.0}, ">=", 1.0)],
                  objective={"b": 1.0})
    sol = solve(m)
    assert sol.status == "optimal"
    assert math.isclose(sol.value("b"), 1.0, abs_tol=1e-6)


def test_solution_value_of_missing_name():
    m = MILPModel(variables=[Variable("x", CONTINUOUS, 0.0, 1.0)],
                  objective={"x": 1.0})
    sol = solve(m)
    with pytest.raises(KeyError):
        sol.value("y")


def test_solve_options_node_limit():
    # with zero explorable nodes and no incumbent the solver reports timeout
    m = MILPModel(
        variables=[Variable(f"b{i}", BINARY, 0.0, 1.0) for i in range(6)],
        rows=[Row("sum", {f"b{i}": 1.0 for i in range(6)}, "=", 3.0),
              Row("knap", {f"b{i}": float(i + 1) for i in range(6)}, "<=", 7.0)],
        objective={f"b{i}": -float(i % 3 + 1) for i in range(6)},
    )
    full = solve(m)
    assert full.status == "optimal"
    capped = solve(m, SolveOptions(node_limit=1))
    assert capped.status in ("optimal", "timeout")
    if capped.status == "optimal":
        assert math.isclose(capped.objective_value, full.objective_value,
                            abs_tol=1e-6)
