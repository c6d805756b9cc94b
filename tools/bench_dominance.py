"""Model size, solver counters and request times of ``milp+opt`` in two
source trees, written as one JSON file.

    git archive <before-sha> | tar -x -C /tmp/before
    python3 tools/bench_dominance.py --before /tmp/before --after . \
        --repeats 10 --out BENCH_dominance.json

Rows: every request of perfbench's ``roster-sweep`` and ``join-scale``
cycles on their seed-1 inputs, and four larger rosters from perfbench's
generator (structure seed 1, surface 1) under ``roster-sweep``'s query with
"at least 4 women in the top 10" at epsilon 0: 10^3 rows on a 50-value grid
(``pred``, ``jaccard`` and ``kendall``) and 5*10^3 rows on a 200-value grid
(``pred``).

Each repeat measures both trees, each in a new interpreter that imports
``rankrefine`` from the tree's ``src``, and which tree goes first
alternates, so drift on the host lands on both sides.  Per row and tree:

* ``answer``: status and exact distance of one ``run``;
* ``encoded_tuples`` and ``nnz`` by row family, counted from the row labels;
* ``nodes`` and ``lp_iterations`` of one ``solver.solve`` of the built
  model, with the tree's own HiGHS options (the engine skips HiGHS on a
  ``settled`` row, whose original query meets the constraints; the counts
  show what the model would cost);
* ``prune_ms``: ``relevancy_prune`` alone;
* ``setup_ms``, ``solve_ms`` and ``total_ms``: a cold request on a prepared
  instance, the kept models dropped before it, so it builds its model
  (``setup_ms``) and solves it;
* ``warm_ms``: the median ``total_ms`` of the ``WARM`` requests after it,
  which repeat the cold one and so are served from the model the database
  kept.

Each time is the median over the ``--repeats`` interpreters of the tree.
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
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LARGE = [  # (label, rows, grid, distance)
    ("roster-1000-grid50-pred", 1000, 50, "pred"),
    ("roster-1000-grid50-jaccard", 1000, 50, "jaccard"),
    ("roster-1000-grid50-kendall", 1000, 50, "kendall"),
    ("roster-5000-grid200-pred", 5000, 200, "pred"),
]
TIMES = ("prune_ms", "setup_ms", "solve_ms", "total_ms", "warm_ms")
WARM = 5
FOUR_WOMEN_IN_TEN = json.dumps([{"group": {"Gender": "F"}, "k": 10, "sense": "lower", "n": 4}])


def requests(work: Path):
    """(label, relation files, query text, constraints JSON, epsilon, distance)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import RosterSpec, write_roster
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        directory = work / workload.name
        directory.mkdir()
        files = workload.resident(directory, 1)
        for req in workload.cycle:
            yield (f"{workload.name}/{req.label}", files, workload.query, req.constraints,
                   req.epsilon, req.distance)
    query = WORKLOADS["roster-sweep"].query
    for label, rows, grid, distance in LARGE:
        directory = work / label
        directory.mkdir()
        files = write_roster(directory, 1, 1, RosterSpec(rows=rows, grid=grid))
        yield label, files, query, FOUR_WOMEN_IN_TEN, "0", distance


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def measure() -> list[dict]:
    """Every row, measured once with the ``rankrefine`` this interpreter
    imports."""
    import rankrefine as rr
    from rankrefine.constraints import deviation
    from rankrefine.engine import BUILD_OPTIONS
    from rankrefine.milp import build, solver

    options = BUILD_OPTIONS["milp+opt"]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, files, text, cons, eps, distance in requests(Path(tmp)):
            db = rr.Database()
            for name, path in sorted(files.items()):
                db.add(rr.load_csv(path, name=name))
            query = rr.parse_query(text)
            config = rr.RunConfig(query, db, rr.parse_constraints(cons), Fraction(eps),
                                  rr.DistanceKind(distance))
            result = rr.run(config)
            instance = db.last_prepared
            cs = config.constraints.over(instance.schema)
            original = instance.original_ranking
            settled = (len(original) >= cs.k_star
                       and deviation(original, instance.tuples_by_id, cs) <= config.epsilon)

            def builder():
                return build.ModelBuilder(query, db, cs, config.epsilon, config.kind, options)

            b = builder()
            t0 = time.perf_counter()
            b.relevancy_prune()
            prune = time.perf_counter() - t0
            built = builder().build()
            model = built.model
            nnz = dict.fromkeys(build.ROW_FAMILIES, 0)
            family = {lab: f for f, labels in build.ROW_FAMILIES.items() for lab in labels}
            for r, row_label in enumerate(model.row_labels):
                nnz[family[row_label[0]]] += model.row_start[r + 1] - model.row_start[r]
            counters = solver.solve(model).stats

            instance.models.clear()  # a cold build
            timing = rr.run(config).timing_ms
            warm = statistics.median(rr.run(config).timing_ms["total_ms"] for _ in range(WARM))
            rows.append({
                "request": label,
                "answer": [result.status, None if result.distance is None
                           else str(Fraction(result.distance))],
                "settled": settled,
                "tuples": len(instance),
                "encoded_tuples": built.stats["encoded_tuples"],
                "nnz": len(model.row_index),
                "nnz_by_family": nnz,
                "nodes": counters["nodes"],
                "lp_iterations": counters["lp_iterations"],
                "prune_ms": _ms(prune),
                **{key: round(timing[key], 3) for key in ("setup_ms", "solve_ms", "total_ms")},
                "warm_ms": round(warm, 3),
            })
            print(label, rows[-1]["encoded_tuples"], rows[-1]["total_ms"], file=sys.stderr)
    return rows


def measure_tree(tree: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, __file__, "--measure"],
                         env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def median_rows(samples: list[list[dict]]) -> list[dict]:
    """Per row: the first sample's answer and counts, and each time's median
    over the samples."""
    return [{**rows[0], **{k: round(statistics.median(r[k] for r in rows), 3) for k in TIMES}}
            for rows in zip(*samples)]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, help="source tree measured as 'before'")
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dominance.json")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        json.dump(measure(), sys.stdout)
        return 0
    if args.before is None:
        parser.error("--before is required")
    import numpy
    import scipy

    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    samples = {side: [] for side in trees}
    for repeat in range(args.repeats):
        for side, tree in list(trees.items())[::1 if repeat % 2 == 0 else -1]:
            samples[side].append(measure_tree(tree))
    before, after = (median_rows(samples[side]) for side in trees)
    report = {
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            # when set, every fresh interpreter compiles all of ``src/`` again
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "head": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
        },
        "commands": ["git archive <before-sha> | tar -x -C <before>",
                     f"python3 tools/bench_dominance.py --before <before> --after . "
                     f"--repeats {args.repeats} --out {args.out.name}"],
        "repeats": args.repeats,
        "rows": [{"request": b["request"], "before": b, "after": a}
                 for b, a in zip(before, after)],
    }
    for row in report["rows"]:
        del row["before"]["request"], row["after"]["request"]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
