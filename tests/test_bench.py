import importlib
import json
from pathlib import Path

import pytest

from rankrefine.bench import (
    BenchReport,
    Scenario,
    materialize_constraints,
    run_scenario,
    run_suite,
)
from rankrefine.data import natural_join
from rankrefine.errors import PreconditionError

SUITE = Path(__file__).resolve().parent.parent / "scenarios"


def _write_mini_scenario(tmp_path, **overrides):
    raw = {
        "name": "mini",
        "data": {
            "Students": str(SUITE / "data" / "students.csv"),
            "Activities": str(SUITE / "data" / "activities.csv"),
        },
        "query": str(SUITE / "scholarship" / "query.sql"),
        "constraints": str(SUITE / "scholarship" / "constraints.json"),
        "distances": ["pred"],
        "engines": ["milp+opt"],
        "epsilon": "0",
    }
    raw.update(overrides)
    path = tmp_path / "mini.scenario.json"
    path.write_text(json.dumps(raw))
    return path


def test_materialize_fixed_constraints():
    entries = [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3}]
    cs = materialize_constraints(entries)
    assert cs.k_star == 6 and cs.constraints[0].n == 3


def test_materialize_k_override_with_ratio():
    entries = [{"group": {"Gender": "F"}, "k": 6, "sense": "lower",
                "n": 3, "n_ratio": 0.34}]
    for k, want_n in ((3, 1), (10, 3), (100, 34)):
        cs = materialize_constraints(entries, k_override=k)
        assert cs.k_star == k
        assert cs.constraints[0].n == want_n


def test_materialize_k_override_clamps_fixed_n():
    entries = [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3}]
    cs = materialize_constraints(entries, k_override=2)
    assert cs.constraints[0].n == 2


def test_materialize_requires_bound():
    with pytest.raises(PreconditionError):
        materialize_constraints(
            [{"group": {"Gender": "F"}, "k": 6, "sense": "lower"}])


def test_scenario_without_sweep_runs_once(tmp_path):
    scenario = Scenario.load(_write_mini_scenario(tmp_path))
    rows = run_scenario(scenario, repeats=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "refined"
    assert row.distance_value == "1/2"
    assert row.axis == "none"
    assert row.repeats == 1
    assert row.total_ms > 0 and row.model_vars > 0 and row.model_rows > 0


def test_k_sweep_row_count_and_model_growth(tmp_path):
    path = _write_mini_scenario(
        tmp_path,
        epsilon="1",
        sweep={"axis": "k", "values": [2, 3, 4]},
        constraints=str(tmp_path / "templ.json"),
    )
    (tmp_path / "templ.json").write_text(json.dumps([
        {"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n_ratio": 0.5},
    ]))
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert len(rows) == 3
    assert [r.value for r in rows] == [2, 3, 4]
    assert all(r.status == "refined" for r in rows)


def test_k_sweep_prepares_its_instance_once(tmp_path, monkeypatch):
    annotate = importlib.import_module("rankrefine.annotate")
    joins = []

    def counted(left, right, name=None):
        joins.append((left.name, right.name))
        return natural_join(left, right, name)

    monkeypatch.setattr(annotate, "natural_join", counted)
    path = _write_mini_scenario(
        tmp_path, epsilon="1", engines=["milp+opt", "naive+prov"],
        distances=["pred", "jaccard"], sweep={"axis": "k", "values": [2, 3, 4]})
    rows = run_scenario(Scenario.load(path), repeats=2)
    assert len(rows) == 12 and all(r.status == "refined" for r in rows)
    # every repeat, engine, distance and k shares one database and so one
    # prepared instance: Students NATURAL JOIN Activities runs once
    assert joins == [("Students", "Activities")]


def test_constraint_count_sweep_grows_model(tmp_path):
    path = _write_mini_scenario(
        tmp_path, epsilon="1",
        sweep={"axis": "constraint_count", "values": [1, 2]})
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert len(rows) == 2
    assert rows[0].model_rows < rows[1].model_rows


def test_epsilon_sweep_distances_non_increasing(tmp_path):
    path = _write_mini_scenario(
        tmp_path, sweep={"axis": "epsilon", "values": ["0", "1/4", "1"]})
    rows = run_scenario(Scenario.load(path), repeats=1)
    from fractions import Fraction
    dists = [Fraction(r.distance_value) for r in rows]
    assert dists == sorted(dists, reverse=True)


def test_constraint_type_sweep(tmp_path):
    path = _write_mini_scenario(
        tmp_path, epsilon="1",
        sweep={"axis": "constraint_type", "values": ["lower", "upper", "both"]})
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert [r.value for r in rows] == ["lower", "upper", "both"]
    assert all(r.status == "refined" for r in rows)


def test_scale_sweep(tmp_path):
    path = _write_mini_scenario(
        tmp_path, epsilon="1", sweep={"axis": "scale", "values": [10, 14]})
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert len(rows) == 2 and all(r.status != "error" for r in rows)


def test_unknown_axis_rejected(tmp_path):
    path = _write_mini_scenario(tmp_path, sweep={"axis": "moon", "values": [1]})
    with pytest.raises(PreconditionError):
        run_scenario(Scenario.load(path), repeats=1)


def test_bad_sweep_point_records_error_and_continues(tmp_path):
    path = _write_mini_scenario(
        tmp_path, epsilon="1",
        sweep={"axis": "constraint_count", "values": [99, 1]})
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert len(rows) == 2
    # an over-long prefix selects every constraint, so only truly bad points
    # error; a zero-length prefix is one
    statuses = {r.value: r.status for r in rows}
    assert statuses[1] == "refined"


def test_suite_runner_and_csv(tmp_path):
    _write_mini_scenario(tmp_path)
    broken = tmp_path / "broken.scenario.json"
    broken.write_text("{ not json")
    report = run_suite(tmp_path, repeats=1)
    assert {r.status for r in report.rows} == {"refined", "error"}
    out = tmp_path / "report.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,axis,value")
    assert len(lines) == 1 + len(report.rows)
    assert "mini" in report.summary()


def test_suite_requires_scenarios(tmp_path):
    with pytest.raises(PreconditionError):
        run_suite(tmp_path)


def test_shipped_suite_loads():
    suite = SUITE / "suite"
    paths = sorted(suite.glob("*.scenario.json"))
    assert len(paths) == 6
    for path in paths:
        scenario = Scenario.load(path)
        for axis, value in scenario.sweep_points():
            configs = scenario.configs(axis, value)
            assert configs, path.name
