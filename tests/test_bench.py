import csv
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
from rankrefine.cli import EXIT_REFINED, main
from rankrefine.constraints import parse_constraints
from rankrefine.data import natural_join
from rankrefine.errors import ConstraintValidationError, PreconditionError

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


def test_materialize_reads_the_ratio_as_written():
    # in binary floating point 100 * 0.29 is 28.999999999999996
    entries = [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n_ratio": 0.29}]
    assert materialize_constraints(entries, k_override=100).constraints[0].n == 29


@pytest.mark.parametrize("ratio", ["inf", "nan", True])
def test_a_ratio_that_is_no_finite_number_is_an_error_row(tmp_path, ratio):
    (tmp_path / "templ.json").write_text(json.dumps(
        [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n_ratio": ratio}]))
    _write_mini_scenario(tmp_path, constraints="templ.json",
                         sweep={"axis": "k", "values": [4]})
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(tmp_path), "--repeats", "1", "--out", str(out)]) == 0
    [row] = csv.DictReader(out.open(encoding="utf-8"))
    assert (row["status"], row["error"]) == (
        "error", f"constraint #0: n_ratio must be a finite number, got {ratio!r}")


def test_materialize_k_override_clamps_fixed_n():
    entries = [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3}]
    cs = materialize_constraints(entries, k_override=2)
    assert cs.constraints[0].n == 2


def test_materialize_requires_bound():
    with pytest.raises(ConstraintValidationError,
                       match="^constraint #0: constraint entry needs 'n' or 'n_ratio'$"):
        materialize_constraints(
            [{"group": {"Gender": "F"}, "k": 6, "sense": "lower"}])


def test_bench_reads_a_constraint_file_as_run_does(tmp_path, capsys):
    """A group value written as a JSON number is read as text by both
    commands, so it matches a categorical column's value."""
    (tmp_path / "t.csv").write_text(
        "ID,Zip,Score,X\n1,99999,50,5\n2,12345,40,1\n3,99999,30,4\n4,12345,20,3\n")
    (tmp_path / "t.schema.json").write_text('{"Zip": "categorical"}')
    (tmp_path / "query.sql").write_text("SELECT * FROM T WHERE X >= 4 ORDER BY Score DESC")
    text = json.dumps([{"group": {"Zip": 12345}, "k": 2, "sense": "lower", "n": 1}])
    (tmp_path / "constraints.json").write_text(text)
    assert materialize_constraints(json.loads(text)) == parse_constraints(text)

    # a 12345 enters the top 2 once X >= 1
    path = _write_mini_scenario(tmp_path, data={"T": "t.csv"}, schemas={"T": "t.schema.json"},
                                query="query.sql", constraints="constraints.json")
    [row] = run_scenario(Scenario.load(path), repeats=1)
    assert (row.status, row.distance_value) == ("refined", "3/4")
    assert main(["run", "--data", f"T={tmp_path / 't.csv'}",
                 "--schema", f"T={tmp_path / 't.schema.json'}",
                 "--query", str(tmp_path / "query.sql"),
                 "--constraints", str(tmp_path / "constraints.json"),
                 "--epsilon", "0"]) == EXIT_REFINED
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["distance"]) == ("refined", "0.75")


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


def test_a_negative_scenario_timeout_is_an_error_row(tmp_path):
    rows = run_scenario(Scenario.load(_write_mini_scenario(tmp_path, timeout_s=-1)),
                        repeats=1)
    assert [(r.status, r.error) for r in rows] == [
        ("error", "timeout_s must be a non-negative number, got -1")]


def test_a_schema_for_a_relation_data_does_not_name_is_an_error_row(tmp_path):
    side = tmp_path / "students.schema.json"
    side.write_text(json.dumps({"Income": "categorical"}))
    path = _write_mini_scenario(tmp_path, schemas={"Studnets": str(side)})
    rows = run_scenario(Scenario.load(path), repeats=1)
    assert [(r.status, r.error) for r in rows] == [
        ("error", "no data file is named for the schema of ['Studnets']")]


@pytest.mark.parametrize("entry", [{"k": 5.9}, {"n": True}, {"group": {"Gender": None}}])
def test_a_constraint_value_of_the_wrong_type_is_an_error_row(tmp_path, entry):
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps(
        [{"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3, **entry}]))
    rows = run_scenario(Scenario.load(
        _write_mini_scenario(tmp_path, constraints=str(constraints))), repeats=1)
    assert [r.status for r in rows] == ["error"]
    assert "must be a whole number" in rows[0].error or "not a string or a number" in rows[0].error


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


def test_malformed_scenario_files_are_error_rows_of_a_suite_that_goes_on(tmp_path, capsys):
    good = json.loads(_write_mini_scenario(tmp_path).read_text())
    entry = {"group": {"Gender": "F"}, "k": 6, "sense": "lower", "n": 3}
    for name, entries in (("entry", ["oops"]), ("group", [{**entry, "group": ["Gender"]}])):
        (tmp_path / f"{name}.json").write_text(json.dumps(entries))
    bad = {"list": [], "data": {**good, "data": [good["data"]]},
           "sweep": {**good, "sweep": {"axis": "k", "values": 5}},
           "engines": {**good, "engines": "milp"},
           "entry": {**good, "name": "entry", "constraints": str(tmp_path / "entry.json")},
           "group": {**good, "name": "group", "constraints": str(tmp_path / "group.json")},
           "null": {**good, "name": "null", "sweep": {"axis": "k", "values": [None, 3]}},
           "count": {**good, "name": "count",
                     "sweep": {"axis": "constraint_count", "values": [-1, 1]}},
           "scale": {**good, "name": "scale", "sweep": {"axis": "scale", "values": [-100, 14]}}}
    for name, raw in bad.items():
        (tmp_path / f"{name}.scenario.json").write_text(json.dumps(raw))
    out = tmp_path / "report.csv"
    assert main(["bench", "--suite", str(tmp_path), "--repeats", "1",
                 "--out", str(out)]) == EXIT_REFINED
    with open(out, newline="") as fh:
        rows = {}
        for row in csv.DictReader(fh):
            rows.setdefault(row["scenario"].removesuffix(".scenario"), []).append(row)
    assert len(rows) == 10 and [r["status"] for r in rows["mini"]] == ["refined"]
    # a bad sweep value is an error row, and the scenario's next point runs
    for name, message in (
            ("null", "a k sweep value must be a whole number, got None"),
            ("count", "a constraint_count sweep value must not be negative, got -1"),
            ("scale", "a scale sweep value must not be negative, got -100")):
        bad_point, next_point = rows.pop(name)
        assert (bad_point["status"], bad_point["error"]) == ("error", message)
        assert next_point["status"] != "error"
    errors = {name: row["error"] for name, [row] in rows.items() if name != "mini"}
    assert errors.keys() == bad.keys() - {"null", "count", "scale"}
    assert "a JSON object" in errors["list"]
    for field in ("data", "sweep", "engines"):
        assert f"field {field!r}" in errors[field]
    assert errors["entry"].startswith("constraint #0: ")
    assert errors["group"] == "constraint #0: 'list' object has no attribute 'values'"


def test_a_scenario_file_may_start_with_a_byte_order_mark(tmp_path):
    path = _write_mini_scenario(tmp_path)
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    [row] = run_suite(tmp_path, repeats=1).rows
    assert (row.status, row.error) == ("refined", "")


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
