import json
import os
from pathlib import Path

import pytest
from conftest import read_lp

from rankrefine import engine
from rankrefine.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NO_REFINEMENT,
    EXIT_REFINED,
    EXIT_TIMEOUT,
    main,
)
from rankrefine.milp import Solution

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


def test_outcome_distance_k_must_be_k_star(capsys):
    assert main(_run_args(distance="jaccard", k=4)) == EXIT_INVALID
    assert "k*" in capsys.readouterr().err


def test_out_file_and_sql_sidecar(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(_run_args(out=out)) == EXIT_REFINED
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["status"] == "refined"
    sql = (tmp_path / "report.sql").read_text().strip()
    assert sql.startswith("SELECT DISTINCT")
    assert "GPA >= 3.7" in sql and "'SO'" in sql


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


def test_optimization_toggles(capsys):
    args = _run_args() + ["--no-prune", "--no-merge", "--no-relax"]
    assert main(args) == EXIT_REFINED
    assert json.loads(capsys.readouterr().out)["distance"] == "0.5"


def test_bench_subcommand(tmp_path, capsys):
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
    (tmp_path / "mini.scenario.json").write_text(json.dumps(scenario))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(tmp_path), "--repeats", "1",
                 "--out", str(out)]) == 0
    assert "cli-mini" in capsys.readouterr().out
    assert out.read_text().splitlines()[0].startswith("scenario,")


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
                        assignment={v.name: 1.0 for v in model.variables},
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
