"""The measuring scripts under ``tools/`` run against the current program.

Each is driven on the scholarship scenario alone, so a change to what the
program exposes breaks here rather than in the next benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_cold  # noqa: E402
import bench_dominance  # noqa: E402

SCENARIO = ROOT / "scenarios" / "scholarship"
DATA = ROOT / "scenarios" / "data"
TABLES = {"Students": DATA / "students.csv", "Activities": DATA / "activities.csv"}


def test_bench_dominance_measures_a_request(monkeypatch):
    def requests(work):
        yield ("scholarship", TABLES, (SCENARIO / "query.sql").read_text(encoding="utf-8"),
               (SCENARIO / "constraints.json").read_text(encoding="utf-8"), "0", "pred")

    monkeypatch.setattr(bench_dominance, "requests", requests)
    [row] = bench_dominance.measure()
    assert row["request"] == "scholarship"
    assert row["answer"] == ["refined", "1/2"]
    assert row["encoded_tuples"] <= row["tuples"]
    assert sum(row["nnz_by_family"].values()) == row["nnz"]


def test_bench_cold_measures_a_request():
    request = {"query": SCENARIO / "query.sql", "constraints": SCENARIO / "constraints.json",
               "epsilon": "0", "distance": "pred"}
    row = bench_cold.measure({name: str(path) for name, path in TABLES.items()}, request)
    assert row["answer"] == ["refined", "1/2"]
    # each file's lines less its header
    assert row["rows_loaded"] == sum(len(path.read_text(encoding="utf-8").splitlines()) - 1
                                     for path in TABLES.values())
    assert set(bench_cold.PHASES) <= set(row)
