import math
from fractions import Fraction

import pytest
from conftest import read_lp
from scipy.optimize._highspy import _core as highspy

from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.milp.build import build_model
from rankrefine.errors import InternalConsistencyError
from rankrefine.milp.model import (
    BINARY,
    CONTINUOUS,
    MILPModel,
    Row,
)
from rankrefine.milp.solver import SolveOptions, solve, solve_lp_relaxation, write_lp


def _small_model():
    m = MILPModel(objective_constant=1.25)
    x = m.add_column(CONTINUOUS, 0.0, 10.0, "x")
    b = m.add_column(BINARY, 0.0, 1.0, "b")
    m.add_row([x, b], [1.0, -3.0], ">=", 2.0, "lo")
    m.add_row([x], [1.0], "<=", 9.0, "cap")
    m.add_row([x, b], [1.0, 1.0], "=", 6.0, "tie")
    m.col_cost[x], m.col_cost[b] = 1.0, -0.5
    return m


def test_validate_accepts_well_formed():
    _small_model().validate()


def test_views_read_the_arrays_back():
    m = _small_model()
    assert (m.col_names, m.col_kinds, m.col_lower, m.col_upper) == (
        ["x", "b"], [CONTINUOUS, BINARY], [0.0, 0.0], [10.0, 1.0])
    assert m.rows == [Row("lo", {"x": 1.0, "b": -3.0}, ">=", 2.0),
                      Row("cap", {"x": 1.0}, "<=", 9.0),
                      Row("tie", {"x": 1.0, "b": 1.0}, "=", 6.0)]


def test_row_names_are_made_from_labels_and_kept_apart():
    m = MILPModel()
    x = m.add_column(CONTINUOUS, 0.0, 1.0, "x")
    assert m.add_column(CONTINUOUS, 0.0, 1.0, "x") == 1
    for label in (("x",), ("r", 1), ("r", 1), ("r", "a b"), ()):
        m.add_row([x], [1.0], "<=", 1.0, *label)
    assert m.col_names == ["x", "x_2"]
    assert m.row_names() == ["x_3", "r_1", "r_1_2", "r_a_b", "x_4"]


def test_validate_rejects_duplicate_names():
    m = _small_model()
    m.col_names[1] = "x"
    with pytest.raises(InternalConsistencyError):
        m.validate()


def test_validate_rejects_undeclared_in_row():
    for column in (2, -1):
        m = _small_model()
        m.add_row([column], [1.0], "<=", 0.0, "bad")
        with pytest.raises(InternalConsistencyError):
            m.validate()


def test_validate_rejects_undeclared_in_objective():
    m = _small_model()
    m.col_cost.append(1.0)
    with pytest.raises(InternalConsistencyError):
        m.validate()


def test_binary_bounds_enforced():
    m = _small_model()
    m.add_column(BINARY, 0.0, 2.0, "b")
    with pytest.raises(InternalConsistencyError):
        m.validate()


def test_infinite_bounds_rejected():
    m = _small_model()
    m.add_column(CONTINUOUS, 0.0, float("inf"), "y")
    with pytest.raises(InternalConsistencyError):
        m.validate()


def test_unknown_sense_rejected():
    with pytest.raises(InternalConsistencyError):
        _small_model().add_row([0], [1.0], "<", 0.0, "r")


@pytest.mark.parametrize("kind", [
    DistanceKind(PRED), DistanceKind(JACCARD), DistanceKind(KENDALL)])
def test_lp_text_reads_back_through_highs(tmp_path, students_db, scholarship_query,
                                          scholarship_constraints, kind):
    built = build_model(scholarship_query, students_db, scholarship_constraints,
                        Fraction(0), kind)
    path = tmp_path / "model.lp"
    write_lp(built.model, path)
    h = read_lp(path)
    assert (h.getNumCol(), h.getNumRow()) == (len(built.model.col_names),
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


def _one_column(kind=CONTINUOUS, ub=100.0, name="x"):
    m = MILPModel()
    m.add_column(kind, 0.0, ub, name)
    m.col_cost[0] = 1.0
    return m


def test_trivial_lp_min_x_at_least_two():
    m = _one_column()
    m.add_row([0], [1.0], ">=", 2.0, "lo")
    sol = solve(m)
    assert sol.status == "optimal"
    assert math.isclose(sol.objective_value, 2.0, abs_tol=1e-9)
    assert sol.values == [pytest.approx(2.0, abs=1e-9)]
    # no binaries, so no branch and bound and no MIP bound to report
    assert (sol.stats["nodes"], sol.stats["mip_gap"], sol.stats["dual_bound"]) == (0, None, None)


def test_objective_constant_carried_through():
    m = _one_column()
    m.add_row([0], [1.0], ">=", 2.0, "lo")
    m.objective_constant = 5.0
    sol = solve(m)
    assert math.isclose(sol.objective_value, 7.0, abs_tol=1e-9)


def test_infeasible_pair():
    m = _one_column(ub=10.0)
    m.add_row([0], [1.0], ">=", 6.0, "lo")
    m.add_row([0], [1.0], "<=", 5.0, "hi")
    assert solve(m).status == "infeasible"
    assert solve_lp_relaxation(m).status == "infeasible"


def test_binary_forced_by_row():
    m = _one_column(BINARY, ub=1.0, name="b")
    m.add_row([0], [2.0], ">=", 1.0, "lo")
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.values == [1.0]


def test_solve_options_node_limit():
    # with zero explorable nodes and no incumbent the solver reports timeout
    m = MILPModel()
    cols = [m.add_column(BINARY, 0.0, 1.0, f"b{i}") for i in range(6)]
    m.add_row(cols, [1.0] * 6, "=", 3.0, "sum")
    m.add_row(cols, [float(i + 1) for i in range(6)], "<=", 7.0, "knap")
    for i in cols:
        m.col_cost[i] = -float(i % 3 + 1)
    full = solve(m)
    assert full.status == "optimal"
    capped = solve(m, SolveOptions(node_limit=1))
    assert capped.status in ("optimal", "timeout")
    if capped.status == "optimal":
        assert math.isclose(capped.objective_value, full.objective_value,
                            abs_tol=1e-6)
