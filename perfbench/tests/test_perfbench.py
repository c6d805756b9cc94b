"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import csv
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import summary  # noqa: E402
from gen import JoinSpec, RosterSpec, write_join, write_roster  # noqa: E402
from spans import Span, Target, Tracer, self_times  # noqa: E402


def _read(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_same_seeds_give_byte_identical_csvs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    spec = JoinSpec(students=50, fanout=(3, 5))
    for write, kwargs in ((write_roster, {"spec": RosterSpec(rows=30)}), (write_join, {"spec": spec})):
        fa = write(a, 7, 11, **kwargs)
        fb = write(b, 7, 11, **kwargs)
        for name in fa:
            assert fa[name].read_bytes() == fb[name].read_bytes()


def test_surface_changes_bytes_but_not_ranked_structure(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ra = write_roster(a, 3, 1)["Astronauts"]
    rb = write_roster(b, 3, 2)["Astronauts"]
    assert ra.read_bytes() != rb.read_bytes()

    def ranked(path):
        rows = sorted(_read(path), key=lambda r: -int(r["Flight_Hours"]))
        return [(r["Gender"], r["Status"], r["Space_Flights"]) for r in rows]

    assert ranked(ra) == ranked(rb)


def test_join_surface_keeps_each_students_activity_order(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    spec = JoinSpec(students=40, fanout=(3, 5))
    fa, fb = write_join(a, 5, 1, spec), write_join(b, 5, 2, spec)

    def by_rank(files):
        students = {r["ID"]: r for r in _read(files["Students"])}
        acts: dict[str, list[str]] = {}
        for r in _read(files["Activities"]):
            acts.setdefault(r["ID"], []).append(r["Activity"])
        ranked = sorted(students.values(), key=lambda s: -int(s["SAT"]))
        return [(s["Gender"], s["Income"], s["GPA"], acts[s["ID"]]) for s in ranked]

    assert fa["Students"].read_bytes() != fb["Students"].read_bytes()
    assert by_rank(fa) == by_rank(fb)


def test_tail_is_the_median_of_per_cycle_maxima():
    # three cycles of four requests; the dearest request costs 9, 10 and 30
    values = [1.0, 9.0, 2.0, 3.0,
              10.0, 1.0, 2.0, 3.0,
              2.0, 1.0, 30.0, 3.0]
    t = summary.tail(values, 4)
    assert t["value"] == 10.0
    assert (t["cycles"], t["samples"], t["beyond"]) == (3, 12, 1)
    assert t["percentile"] == 100.0 * 11 / 12


def test_tail_moves_when_only_the_dearest_request_slows():
    base = [1.0, 2.0, 3.0, 8.0] * 5
    slow = [1.0, 2.0, 3.0, 12.0] * 5
    assert summary.tail(base, 4)["value"] == 8.0
    assert summary.tail(slow, 4)["value"] == 12.0
    assert statistics.median(base) == statistics.median(slow)


def test_tail_with_fewer_than_eleven_samples_is_one_cycles_maximum():
    t = summary.tail([5.0, 1.0, 3.0], 3)
    assert (t["value"], t["cycles"], t["samples"], t["beyond"]) == (5.0, 1, 3, 0)
    assert t["percentile"] == 100.0


def test_tail_rejects_a_partial_cycle():
    with pytest.raises(ValueError):
        summary.tail([1.0, 2.0, 3.0], 2)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        summary.tail([], 3)


def test_failed_ratio_counts_exceptions_timeouts_and_wrong_answers():
    outcomes = [
        summary.Outcome("ok", 0.1, status="refined"),
        summary.Outcome("boom", 0.1, error="ValueError: x"),
        summary.Outcome("slow", 0.1, status="timeout"),
        summary.Outcome("wrong", 0.1, status="refined", mismatch="1/2 != 1/3"),
        # a timed-out request that also mismatches still counts once
        summary.Outcome("both", 0.1, status="timeout", mismatch="x"),
    ]
    f = summary.failures(outcomes)
    assert f["attempted"] == 5
    assert f["failed"] == 4
    assert f["failed_ratio"] == 4 / 5
    assert f["by_cause"] == {"exception": 1, "timeout": 2, "wrong_answer": 1}
    assert [r["label"] for r in f["requests"]] == ["boom", "slow", "wrong", "both"]


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", "engine", 0.0, 10.0, None, 0),
        Span("a", "x", 1.0, 4.0, 0, 0),
        Span("a.child", "y", 2.0, 3.0, 1, 0),
        Span("b", "x", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        Span("root", "engine", 0.0, 10.0, None, 0),
        Span("c1", "x", 2.0, 6.0, 0, 0),
        Span("c2", "x", 4.0, 8.0, 0, 0),
        Span("c3", "x", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_record_and_are_restored():
    def double(x):
        return 2 * x

    def explode():
        raise RuntimeError("x")

    mod = types.SimpleNamespace(double=double, explode=explode)
    tracer = Tracer()
    targets = [Target(mod, "double", "layer.double", "layer", lambda r: {"layer.out": r}),
               Target(mod, "explode", "layer.explode", "layer")]
    tracer.request = 3
    with tracer.patched(targets):
        assert mod.double is not double
        assert mod.double(4) == 8
    assert mod.double is double
    assert [s.name for s in tracer.spans] == ["layer.double"]
    assert tracer.counts == {(3, "layer.double.calls"): 1, (3, "layer.out"): 8}

    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            mod.explode()
    assert mod.double is double and mod.explode is explode
    assert tracer.spans[-1].end >= tracer.spans[-1].start


def test_a_missing_target_raises_and_restores_the_others():
    def double(x):
        return 2 * x

    mod = types.SimpleNamespace(double=double)
    targets = [Target(mod, "double", "layer.double", "layer"),
               Target(mod, "absent", "layer.absent", "layer")]
    with pytest.raises(AttributeError):
        with Tracer().patched(targets):
            pass
    assert mod.double is double
    assert not hasattr(mod, "absent")


def test_every_trace_target_exists_in_the_program():
    import run

    rr = run.import_program()
    missing = [f"{t.module.__name__}.{t.attr}" for t in run.trace_targets(rr)
               if not hasattr(t.module, t.attr)]
    assert missing == []


def test_program_functions_are_restored_after_tracing():
    import run

    targets = run.trace_targets(run.import_program())
    before = [getattr(t.module, t.attr) for t in targets]
    with Tracer().patched(targets):
        assert all(getattr(t.module, t.attr) is not fn for t, fn in zip(targets, before))
    assert all(getattr(t.module, t.attr) is fn for t, fn in zip(targets, before))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roster-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_oracle_form_is_shared_by_every_surface_and_sees_ties(tmp_path):
    import run

    spec = JoinSpec(students=40, fanout=(3, 5))
    forms = []
    for structure, surface in ((5, 1), (5, 2), (6, 1)):
        d = tmp_path / f"{structure}-{surface}"
        d.mkdir()
        forms.append(run.canonical(write_join(d, structure, surface, spec), "SAT"))
    assert forms[0] == forms[1]
    assert forms[0] != forms[2]

    d = tmp_path / "ties"
    d.mkdir()
    (d / "R.csv").write_text("ID,G,S\n1,F,10\n2,M,20\n")
    (d / "T.csv").write_text("ID,G,S\n7,F,10\n8,M,10\n")
    untied = run.canonical({"R": d / "R.csv"}, "S")
    tied = run.canonical({"R": d / "T.csv"}, "S")
    assert untied != tied


@pytest.mark.parametrize("done, elapsed, expected", [
    (0, 0.0, True),      # always one cycle
    (0, 99.0, True),
    (1, 14.0, True),     # 14 s cycles in 30 s: two
    (2, 28.0, False),
    (3, 24.0, True),     # 8 s cycles in 30 s: four
    (4, 32.0, False),
    (1, 45.0, False),    # one cycle longer than the run
])
def test_run_length_is_the_closest_whole_number_of_cycles(done, elapsed, expected):
    import run

    assert run.more_cycles(done, elapsed, 30.0) is expected
