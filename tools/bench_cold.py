"""The cold path of one ``join-scale`` request, from a fresh interpreter, in
two source trees, written as one JSON file.

    git archive <before-sha> | tar -x -C /tmp/before
    python3 tools/bench_cold.py --before /tmp/before --after . \
        --repeats 5 --out BENCH_cold.json

Inputs: perfbench's ``join-scale`` resident relations for seed 1 (7,000
students, about 10^4 joined rows) and ``write_join`` with
``JoinSpec(students=60000)`` (structure seed 1, surface 1; about 9*10^4
joined rows, 1.5*10^5 rows loaded).  The request is ``join-scale``'s
``low-income-eps0``.

Per input and tree, each repeat starts a new interpreter that imports
``rankrefine`` from the tree's ``src`` and times, in this order:

* ``import_ms``: ``import rankrefine``;
* ``load_ms``: ``load_csv`` of both files;
* ``join_ms``: the query's natural join;
* ``annotate_ms``: ``annotate`` on the relation just joined;
* ``first_request_ms``: the first ``run`` of the request, which prepares its
  own instance (join and annotate again), builds and solves.

``cli_wall_ms`` is the wall time of one ``rankrefine run`` of the request
in another new interpreter.  Each repeat measures both trees, and which
goes first alternates; every figure is a median over the repeats.  ``same_report`` says whether the
two trees' CLI reports agree apart from ``timing_ms``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUEST = "low-income-eps0"
PHASES = ("import_ms", "load_ms", "join_ms", "annotate_ms", "first_request_ms")


def inputs(work: Path) -> tuple[dict, list[tuple[str, dict[str, Path]]]]:
    """The request's files and settings as the CLI reads them, and each
    labelled set of relation files."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import JoinSpec, write_join
    from workloads import WORKLOADS

    workload = WORKLOADS["join-scale"]
    req = next(r for r in workload.cycle if r.label == REQUEST)
    request = {"query": work / "query.sql", "constraints": work / "constraints.json",
               "epsilon": req.epsilon, "distance": req.distance}
    request["query"].write_text(workload.query + "\n", encoding="utf-8")
    request["constraints"].write_text(req.constraints + "\n", encoding="utf-8")
    small, large = work / "join-scale-seed1", work / "students-60000"
    small.mkdir()
    large.mkdir()
    return request, [("join-scale-seed1", workload.resident(small, 1)),
                     ("students-60000", write_join(large, 1, 1, JoinSpec(students=60000)))]


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def measure(data: dict[str, str], req: dict[str, str]) -> dict:
    """One cold pass, timed phase by phase in this interpreter."""
    t0 = time.perf_counter()
    import rankrefine as rr
    t1 = time.perf_counter()
    from importlib import import_module
    from fractions import Fraction

    prep = import_module("rankrefine.annotate")
    db = rr.Database()
    for name, path in sorted(data.items()):
        db.add(rr.load_csv(path, name=name))
    t2 = time.perf_counter()
    query = rr.parse_query(Path(req["query"]).read_text(encoding="utf-8"))
    joined = prep.joined_relation(query, db)
    t3 = time.perf_counter()
    join = prep.joined_relation
    prep.joined_relation = lambda q, d: joined  # annotate alone
    try:
        instance = prep.annotate(query, db)
    finally:
        prep.joined_relation = join
    t4 = time.perf_counter()
    constraints = rr.parse_constraints(Path(req["constraints"]).read_text(encoding="utf-8"))
    config = rr.RunConfig(query, db, constraints,
                          Fraction(req["epsilon"]), rr.DistanceKind(req["distance"]))
    result = rr.run(config)
    t5 = time.perf_counter()
    return {"rows_loaded": sum(len(r) for r in db.relations.values()),
            "joined_rows": len(joined), "tuples": len(instance),
            "answer": [result.status, None if result.distance is None
                       else str(Fraction(result.distance))],
            **dict(zip(PHASES, map(_ms, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4))))}


def run_measure(tree: Path, data: dict[str, Path], req: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    spec = json.dumps({"data": {n: str(p) for n, p in data.items()},
                       "request": {k: str(v) for k, v in req.items()}})
    out = subprocess.run([sys.executable, __file__, "--measure", spec], env=env, check=True,
                         stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def run_cli(tree: Path, data: dict[str, Path], req: dict) -> tuple[float, dict]:
    """Wall seconds of one CLI run and its report without ``timing_ms``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-c", "import sys; from rankrefine.cli import main; "
            "sys.exit(main())", "run", "--query", str(req["query"]),
            "--constraints", str(req["constraints"]), "--epsilon", req["epsilon"],
            "--distance", req["distance"]]
    for name, path in sorted(data.items()):
        argv += ["--data", f"{name}={path}"]
    t0 = time.perf_counter()
    out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    report = json.loads(out.stdout)
    report.pop("timing_ms", None)
    return wall, report


def median_of(samples: list[dict]) -> dict:
    first = samples[0]
    return {**{k: v for k, v in first.items() if k not in PHASES},
            **{k: round(statistics.median(s[k] for s in samples), 3) for k in PHASES}}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="source tree measured as 'before'")
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cold.json")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        spec = json.loads(args.measure)
        json.dump(measure(spec["data"], spec["request"]), sys.stdout)
        return 0
    if args.before is None:
        parser.error("--before is required")
    import numpy
    import scipy

    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        req, data_sets = inputs(Path(tmp))
        for label, data in data_sets:
            samples = {side: [] for side in trees}
            walls = {side: [] for side in trees}
            reports = {}
            for repeat in range(args.repeats):
                for side, tree in list(trees.items())[::1 if repeat % 2 == 0 else -1]:
                    samples[side].append(run_measure(tree, data, req))
                    wall, reports[side] = run_cli(tree, data, req)
                    walls[side].append(wall)
                    print(label, side, samples[side][-1]["load_ms"], _ms(wall), file=sys.stderr)
            row = {"inputs": label, "same_report": reports["before"] == reports["after"]}
            for side in trees:
                row[side] = {**median_of(samples[side]),
                             "cli_wall_ms": _ms(statistics.median(walls[side]))}
            row["after_over_before"] = {
                k: round(row["after"][k] / row["before"][k], 3)
                for k in (*PHASES, "cli_wall_ms")}
            rows.append(row)
    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            # when set, every new interpreter compiles all of ``src/`` again
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "head": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        },
        "commands": ["git archive <before-sha> | tar -x -C <before>",
                     f"python3 tools/bench_cold.py --before <before> --after . "
                     f"--repeats {args.repeats} --out {args.out.name}"],
        "request": f"join-scale/{REQUEST}",
        "repeats": args.repeats,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
