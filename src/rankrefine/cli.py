"""Command-line front end.

    rankrefine run --data Students=students.csv --query q.sql \
        --constraints c.json --distance pred --epsilon 0.5 --engine milp+opt

Exit codes: 0 a refinement was found, 2 no refinement exists, 3 timed out,
1 invalid input (usage errors included), 4 internal error (a result failed
exact re-verification, or the solver ended in an unexpected state).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bench import DEFAULT_REPEATS, run_suite
from .constraints import parse_constraints
from .data import Database, load_csv, parse_number, read_sidecar
from .distances import JACCARD, KENDALL, PRED, DistanceKind
from .engine import NO_REFINEMENT, REFINED, TIMEOUT, RunConfig, result_to_dict, run
from .errors import InternalConsistencyError, RankRefineError
from .query import parse_query

EXIT_REFINED = 0
EXIT_INVALID = 1
EXIT_NO_REFINEMENT = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {REFINED: EXIT_REFINED, NO_REFINEMENT: EXIT_NO_REFINEMENT,
                TIMEOUT: EXIT_TIMEOUT}


class _Parser(argparse.ArgumentParser):
    """Exits with ``EXIT_INVALID`` on a usage error, where argparse would use
    2, the code for "no refinement exists"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankrefine",
        description="Refine an SPJ query's predicates until its top-k "
                    "satisfies cardinality constraints, minimally.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="refine one query")
    p.add_argument("--data", action="append", required=True, metavar="NAME=PATH",
                   help="CSV relation, repeatable")
    p.add_argument("--schema", action="append", default=[], metavar="NAME=PATH",
                   help="JSON sidecar schema for a relation, repeatable")
    p.add_argument("--query", required=True, help="file containing the SQL query")
    p.add_argument("--constraints", required=True, help="constraint JSON file")
    p.add_argument("--distance", choices=[PRED, JACCARD, KENDALL], default=PRED)
    p.add_argument("--k", type=int, default=None,
                   help="prefix length for outcome distances (default: k*)")
    p.add_argument("--epsilon", default="0.5",
                   help="maximum allowed deviation (default 0.5; exact, e.g. '1/3')")
    p.add_argument("--engine", choices=["milp", "milp+opt", "naive", "naive+prov"],
                   default="milp+opt")
    p.add_argument("--no-prune", action="store_true",
                   help="disable relevancy pruning (milp+opt)")
    p.add_argument("--no-merge", action="store_true",
                   help="disable lineage-class variable merging (milp+opt)")
    p.add_argument("--no-relax", action="store_true",
                   help="disable single-sense rank-row relaxation (milp+opt)")
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="write the JSON report here (and the refined SQL "
                        "next to it with a .sql suffix); default stdout")
    p.add_argument("--lp-dump", default=None,
                   help="write the compiled model in LP text format")

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", required=True,
                   help="directory of *.scenario.json files")
    b.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    b.add_argument("--out", default=None, help="CSV output path")
    return parser


def _parse_pairs(pairs: list[str], flag: str) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise RankRefineError(f"{flag} expects NAME=PATH, got {pair!r}")
        name, path = pair.split("=", 1)
        out[name] = path
    return out


def _cmd_run(args) -> int:
    data = _parse_pairs(args.data, "--data")
    schemas = _parse_pairs(args.schema, "--schema")
    db = Database()
    for name, path in data.items():
        kinds = read_sidecar(schemas[name]) if name in schemas else None
        db.add(load_csv(path, kinds, name=name))
    query = parse_query(Path(args.query).read_text(encoding="utf-8"))
    constraints = parse_constraints(Path(args.constraints).read_text(encoding="utf-8"))
    k = args.k if args.k is not None else constraints.k_star
    if args.distance in (JACCARD, KENDALL) and k != constraints.k_star:
        raise RankRefineError(
            f"outcome distances are measured at k*={constraints.k_star}; "
            f"--k {k} is not supported")
    config = RunConfig(
        query=query,
        db=db,
        constraints=constraints,
        epsilon=Fraction(parse_number(args.epsilon)),
        kind=DistanceKind(args.distance, k),
        engine=args.engine,
        timeout_s=args.timeout_s,
        prune=not args.no_prune,
        merge=not args.no_merge,
        relax=not args.no_relax,
        lp_dump=args.lp_dump,
    )
    result = _run_with_stdout_on_stderr(config)
    report = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        if result.refined_sql:
            Path(args.out).with_suffix(".sql").write_text(
                result.refined_sql + "\n", encoding="utf-8")
    else:
        print(report)
    return _STATUS_EXIT[result.status]


def _run_with_stdout_on_stderr(config: RunConfig):
    """``run(config)`` with ``sys.stdout`` and file descriptor 1 pointed at
    stderr.

    HiGHS can print straight to descriptor 1 even with its ``output_flag``
    off, and stdout must carry nothing but the JSON report.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return run(config)
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _cmd_bench(args) -> int:
    report = run_suite(args.suite, repeats=args.repeats)
    if args.out:
        report.write_csv(args.out)
    print(report.summary())
    return EXIT_REFINED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RankRefineError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
