import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import read_lp

from rankrefine import cli, engine
from rankrefine.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NO_REFINEMENT,
    EXIT_REFINED,
    EXIT_TIMEOUT,
    main,
)
from rankrefine.milp import Solution

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DATA = SCENARIOS / "data"


def _run_args(out=None, **overrides):
    args = [
        "run",
        "--data", f"Students={DATA / 'students.csv'}",
        "--data", f"Activities={DATA / 'activities.csv'}",
        "--query", str(SCENARIOS / "scholarship" / "query.sql"),
        "--constraints", str(SCENARIOS / "scholarship" / "constraints.json"),
        "--epsilon", "0",
    ]
    for flag, value in overrides.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    if out is not None:
        args += ["--out", str(out)]
    return args


def test_run_refined_exit_zero(capsys):
    assert main(_run_args()) == EXIT_REFINED
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "refined"
    assert payload["distance"] == "0.5"
    assert payload["refinement"]["categorical"]["Activity"] == ["RB", "SO"]
    assert "timing_ms" in payload


NO_PERFECT_ARGS = [
    "run",
    "--data", f"Jobs={DATA / 'no_perfect.csv'}",
    "--query", str(SCENARIOS / "no_perfect" / "query.sql"),
    "--constraints", str(SCENARIOS / "no_perfect" / "constraints.json"),
    "--epsilon", "0",
]


def test_run_no_refinement_exit_two(capsys):
    assert main(NO_PERFECT_ARGS) == EXIT_NO_REFINEMENT
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "no_refinement"


@pytest.mark.parametrize("breakage", [
    {"query": "/nonexistent/query.sql"},
    {"epsilon": "zero"},
    {"engine": "milp"},  # placeholder, replaced below
    {"epsilon": "1/0"},
])
def test_run_invalid_exit_one(capsys, tmp_path, breakage):
    if breakage.get("engine"):
        # malformed --data pair
        args = _run_args()
        args[2] = "Studentsstudents.csv"
        assert main(args) == EXIT_INVALID
    else:
        assert main(_run_args(**breakage)) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def _without_query():
    args = _run_args()
    i = args.index("--query")
    return args[:i] + args[i + 2:]


# argparse's own exit code for these would be 2, "no refinement exists"
@pytest.mark.parametrize("args", [
    _run_args(engine="bogus"),
    _without_query(),
    _run_args(timeout_s="abc"),
], ids=["unknown-engine", "missing-query", "non-numeric-timeout"])
def test_usage_error_exits_one(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
def test_help_exits_zero(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_k_flag_is_a_usage_error(capsys):
    # outcome distances are measured at k*, so no flag sets a prefix length
    with pytest.raises(SystemExit) as exc:
        main(_run_args(k=3))
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err


def test_a_distinct_attribute_missing_from_the_joined_schema_is_invalid_input(tmp_path,
                                                                              capsys):
    query = tmp_path / "query.sql"
    query.write_text("SELECT DISTINCT Foo FROM Students NATURAL JOIN Activities "
                     "WHERE GPA >= 3.7 ORDER BY SAT DESC")
    args = _run_args()
    args[args.index("--query") + 1] = str(query)
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "error: SELECT DISTINCT attribute 'Foo' not in joined schema\n")


def test_a_select_attribute_missing_from_the_joined_schema_is_invalid_input(tmp_path, capsys):
    # checked as ORDER BY is, with or without DISTINCT
    query = tmp_path / "query.sql"
    query.write_text("SELECT Foo FROM Students NATURAL JOIN Activities "
                     "WHERE GPA >= 3.7 ORDER BY SAT DESC")
    args = _run_args()
    args[args.index("--query") + 1] = str(query)
    for engine_name in ("milp+opt", "naive+prov"):
        assert main(args + ["--engine", engine_name]) == EXIT_INVALID
        assert capsys.readouterr() == (
            "", "error: SELECT attribute 'Foo' not in joined schema\n")


def test_an_input_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    query = tmp_path / "query.sql"
    query.write_bytes("SELECT * FROM Students WHERE Name = 'Zoë' ORDER BY SAT DESC"
                      .encode("latin-1"))
    args = _run_args()
    args[args.index("--query") + 1] = str(query)
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("flag", ["--query", "--constraints"])
def test_an_input_file_may_start_with_a_byte_order_mark(tmp_path, capsys, flag):
    args = _run_args()
    i = args.index(flag) + 1
    bommed = tmp_path / Path(args[i]).name
    bommed.write_text("\ufeff" + Path(args[i]).read_text(encoding="utf-8"), encoding="utf-8")
    args[i] = str(bommed)
    assert main(args) == EXIT_REFINED
    assert json.loads(capsys.readouterr().out)["distance"] == "0.5"


@pytest.mark.parametrize("fault", [KeyError("tid"), ValueError("bad row"),
                                   ZeroDivisionError("division by zero")])
def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys, fault):
    def broken(config):
        raise fault

    monkeypatch.setattr(cli, "run", broken)
    assert main(_run_args()) == EXIT_INTERNAL
    assert capsys.readouterr() == ("", f"internal error: {fault!r}\n")


def test_out_file_and_sql_sidecar(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(_run_args(out=out)) == EXIT_REFINED
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["status"] == "refined"
    sql = (tmp_path / "report.sql").read_text().strip()
    assert sql.startswith("SELECT DISTINCT")
    assert "GPA >= 3.7" in sql and "'SO'" in sql


def test_an_out_path_ending_in_sql_is_a_usage_error(tmp_path, capsys):
    # its report would be overwritten by the refined SQL written next to it
    out = tmp_path / "r.sql"
    with pytest.raises(SystemExit) as exc:
        main(_run_args(out=out))
    assert exc.value.code == EXIT_INVALID
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "--out must not end in .sql" in captured.err


def test_lp_dump_flag(tmp_path, capsys):
    dump = tmp_path / "model.lp"
    assert main(_run_args(lp_dump=dump)) == EXIT_REFINED
    stats = json.loads(capsys.readouterr().out)["model_stats"]
    h = read_lp(dump)
    assert (h.getNumCol(), h.getNumRow()) == (stats["variables"], stats["rows"])


def test_deterministic_output_except_timing(tmp_path):
    reports = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        assert main(_run_args(out=out)) == EXIT_REFINED
        payload = json.loads(out.read_text())
        payload.pop("timing_ms")
        reports.append(json.dumps(payload, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("engine", ["milp", "milp+opt", "naive", "naive+prov"])
def test_every_engine_flag(engine, capsys):
    assert main(_run_args(engine=engine)) == EXIT_REFINED
    assert json.loads(capsys.readouterr().out)["distance"] == "0.5"


@pytest.mark.parametrize("flag", ["--no-prune", "--no-merge", "--no-relax"])
def test_an_optimization_toggle_is_a_usage_error(capsys, flag):
    """The engine name is the whole model configuration: ``milp`` has every
    optimization off and ``milp+opt`` every one on."""
    with pytest.raises(SystemExit) as exc:
        main(_run_args() + [flag])
    assert exc.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err


def _mini_suite(directory: Path) -> Path:
    scenario = {
        "name": "cli-mini",
        "data": {"Students": str(DATA / "students.csv"),
                 "Activities": str(DATA / "activities.csv")},
        "query": str(SCENARIOS / "scholarship" / "query.sql"),
        "constraints": str(SCENARIOS / "scholarship" / "constraints.json"),
        "distances": ["pred"],
        "engines": ["milp+opt"],
        "epsilon": "0",
    }
    directory.mkdir(exist_ok=True)
    (directory / "mini.scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    return directory


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(_mini_suite(tmp_path)), "--repeats", "1",
                 "--out", str(out)]) == 0
    assert "cli-mini" in capsys.readouterr().out
    assert out.read_text().splitlines()[0].startswith("scenario,")


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_needs_at_least_one_repeat(capsys, repeats):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", str(SCENARIOS / "suite"), "--repeats", repeats])
    assert exc.value.code == EXIT_INVALID
    assert "--repeats: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["-1", "nan"])
def test_a_negative_or_nan_timeout_is_invalid_input(capsys, timeout):
    assert main(_run_args(timeout_s=timeout)) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: timeout_s must be a non-negative number" in captured.err


def test_every_file_is_read_and_written_as_utf8(tmp_path):
    """Neither command reads or writes a file in the locale's encoding, so
    both pass with the interpreter's EncodingWarning made an error."""
    side = tmp_path / "students.schema.json"
    side.write_text(json.dumps({"Income": "categorical"}), encoding="utf-8")
    commands = [
        _run_args(tmp_path / "report.json") + ["--schema", f"Students={side}",
                                               "--lp-dump", str(tmp_path / "model.lp")],
        ["bench", "--suite", str(_mini_suite(tmp_path / "suite")), "--repeats", "1",
         "--out", str(tmp_path / "bench.csv")],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", "import sys; from rankrefine.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert (proc.returncode, proc.stderr) == (EXIT_REFINED, ""), argv[0]
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["distance"] == "0.5"
    assert (tmp_path / "model.lp").stat().st_size > 0
    assert (tmp_path / "bench.csv").read_text(encoding="utf-8").startswith("scenario,")


@pytest.mark.parametrize("flag", ["--data", "--schema"])
def test_a_name_given_twice_is_a_usage_error(tmp_path, capsys, flag):
    side = tmp_path / "students.schema.json"
    side.write_text(json.dumps({"Income": "categorical"}), encoding="utf-8")
    twice = {"--data": [f"Students={DATA / 'no_perfect.csv'}"],
             "--schema": [f"Students={side}"] * 2}[flag]
    args = _run_args()
    for pair in twice:
        args[1:1] = [flag, pair]
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"error: {flag} names 'Students' more than once\n")


def test_a_schema_for_a_relation_no_data_names_is_a_usage_error(tmp_path, capsys):
    side = tmp_path / "students.schema.json"
    side.write_text(json.dumps({"Income": "categorical"}), encoding="utf-8")
    assert main(_run_args() + ["--schema", f"Studnets={side}"]) == EXIT_INVALID
    assert capsys.readouterr() == (
        "", "error: no data file is named for the schema of ['Studnets']\n")


def test_bench_empty_suite_fails(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_solver_timeout_exit_three(monkeypatch, capsys):
    monkeypatch.setattr(engine, "solve",
                        lambda model, options: Solution(status="timeout"))
    assert main(_run_args()) == EXIT_TIMEOUT
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "timeout"
    assert "refinement" not in payload
    assert payload["distance"] is None


def test_failed_reverification_exit_four(monkeypatch, capsys):
    # Every value selected: the whole table, whose top 3 holds no X = 'B'
    # tuple, so the exact re-check must reject it at epsilon 0.
    def select_everything(model, options):
        return Solution(status="optimal",
                        values=[1.0] * len(model.col_names),
                        objective_value=0.0, stats={"nodes": 0})

    monkeypatch.setattr(engine, "solve", select_everything)
    assert main(NO_PERFECT_ARGS) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("internal error: refined query deviates by 1")
    detail = json.loads(err.split("; ", 1)[1])
    assert detail["refinement"]["categorical"] == {"X": ["A", "B"], "Y": ["C", "D"]}
    assert detail["model_stats"]["nodes"] == 0
    assert detail["model_stats"]["variables"] > 0


def test_malformed_model_exit_four(monkeypatch, capsys):
    # a builder bug is an internal error, not invalid input
    real_build = engine.build_model

    def duplicating_build(*args, **kwargs):
        built = real_build(*args, **kwargs)
        model = built.model
        for column_list in (model.col_names, model.col_kinds, model.col_lower,
                            model.col_upper, model.col_cost):
            column_list.append(column_list[0])
        return built

    monkeypatch.setattr(engine, "build_model", duplicating_build)
    assert main(_run_args()) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: duplicate column names\n"


def test_solver_output_on_descriptor_one_stays_off_stdout(monkeypatch, capfd):
    real_solve = engine.solve

    def chatty_solve(model, options):
        os.write(1, b"solver chatter written to descriptor 1\n")
        print("solver chatter written through sys.stdout")
        return real_solve(model, options)

    monkeypatch.setattr(engine, "solve", chatty_solve)
    assert main(_run_args()) == EXIT_REFINED
    out, err = capfd.readouterr()
    assert json.loads(out)["status"] == "refined"
    assert "descriptor 1" in err and "sys.stdout" in err


@pytest.mark.parametrize("scenario, tables, want", [
    ("scholarship", {"Students": "students.csv", "Activities": "activities.csv"},
     EXIT_REFINED),
    ("no_perfect", {"Jobs": "no_perfect.csv"}, EXIT_NO_REFINEMENT),
])
def test_a_closed_stdout_keeps_the_runs_exit_code(scenario, tables, want):
    args = [arg for name, csv in tables.items() for arg in ("--data", f"{name}={DATA / csv}")]
    args += ["--query", str(SCENARIOS / scenario / "query.sql"),
             "--constraints", str(SCENARIOS / scenario / "constraints.json"),
             "--epsilon", "0"]
    read, write = os.pipe()
    os.close(read)  # nobody reads the report
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from rankrefine.cli import main; "
             "sys.exit(main())", "run", *args],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (want, "")


@pytest.mark.parametrize("sidecar", [
    {"ID": "numerical", "Gender": "categorical"},  # the README's example
    {"Income": "categorical"},                     # GPA and SAT unlisted
])
def test_schema_sidecar_overrides_listed_columns(tmp_path, capsys, sidecar):
    side = tmp_path / "students.schema.json"
    side.write_text(json.dumps(sidecar))
    assert main(_run_args() + ["--schema", f"Students={side}"]) == EXIT_REFINED
    assert json.loads(capsys.readouterr().out)["distance"] == "0.5"


def test_schema_sidecar_of_the_wrong_form_is_invalid_input(tmp_path, capsys):
    side = tmp_path / "students.schema.json"
    side.write_text('[{"name": "GPA", "kind": "numerical"}]')
    assert main(_run_args() + ["--schema", f"Students={side}"]) == EXIT_INVALID
    assert "JSON object mapping CSV columns" in capsys.readouterr().err


@pytest.mark.parametrize("group, want", [
    # a number matches the numerical column's exact values; the original
    # query already meets the bound
    ({"Space_Flights": 3}, EXIT_REFINED),
    # an attribute the query's relations lack is invalid input
    ({"Gendr": "F"}, EXIT_INVALID),
])
def test_constraint_group_is_read_against_the_joined_schema(tmp_path, capsys, group, want):
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps([{"group": group, "k": 5, "sense": "lower", "n": 2}]))
    args = ["run", "--data", f"Astronauts={DATA / 'astronauts.csv'}",
            "--query", str(SCENARIOS / "astronauts" / "query.sql"),
            "--constraints", str(constraints), "--epsilon", "0"]
    assert main(args) == want
    out, err = capsys.readouterr()
    if want == EXIT_REFINED:
        assert json.loads(out)["distance"] == "0"
    else:
        assert out == "" and "Gendr" in err


@pytest.mark.parametrize("entry, want", [
    ({"k": 5.9}, EXIT_INVALID),
    ({"k": True}, EXIT_INVALID),
    ({"n": 1.5}, EXIT_INVALID),
    ({"group": {"Gender": None}}, EXIT_INVALID),
    ({"group": {"Gender": ["F"]}}, EXIT_INVALID),
    # integral numbers and text naming one read as before
    ({"k": 5.0}, EXIT_REFINED),
    ({"k": "5", "n": "2"}, EXIT_REFINED),
])
def test_a_constraint_value_of_the_wrong_type_is_invalid_input(tmp_path, capsys, entry, want):
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps(
        [{"group": {"Space_Flights": 3}, "k": 5, "sense": "lower", "n": 2, **entry}]))
    args = ["run", "--data", f"Astronauts={DATA / 'astronauts.csv'}",
            "--query", str(SCENARIOS / "astronauts" / "query.sql"),
            "--constraints", str(constraints), "--epsilon", "0"]
    assert main(args) == want
    out, err = capsys.readouterr()
    if want == EXIT_REFINED:
        assert json.loads(out)["distance"] == "0"
    else:
        assert out == "" and err.startswith("error: constraint #0: ")
        assert "must be a whole number" in err or "is not a string or a number" in err
