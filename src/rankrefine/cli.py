"""Command-line front end.

    rankrefine run --data Students=students.csv --query q.sql \
        --constraints c.json --distance pred --epsilon 0.5 --engine milp+opt

Exit codes: 0 a refinement was found, 2 no refinement exists, 3 timed out,
1 invalid input (usage errors included), 4 internal error (a result failed
exact re-verification, the solver ended in an unexpected state, or any
other exception).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .constraints import parse_constraints
from .data import load_database, parse_number
from .distances import DISTANCES, PRED, DistanceKind
from .engine import ENGINES, NO_REFINEMENT, REFINED, TIMEOUT, RunConfig, result_to_dict, run
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


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p.add_argument("--distance", choices=DISTANCES, default=PRED)
    p.add_argument("--epsilon", default="0.5",
                   help="maximum allowed deviation (default 0.5; exact, e.g. '1/3')")
    p.add_argument("--engine", choices=ENGINES, default="milp+opt")
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="write the JSON report here (and the refined SQL "
                        "next to it with a .sql suffix); default stdout")
    p.add_argument("--lp-dump", default=None,
                   help="write the compiled model in LP text format")

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", required=True,
                   help="directory of *.scenario.json files")
    b.add_argument("--repeats", type=_at_least_one, default=None)
    b.add_argument("--out", default=None, help="CSV output path")
    return parser


def _parse_pairs(pairs: list[str], flag: str) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise RankRefineError(f"{flag} expects NAME=PATH, got {pair!r}")
        name, path = pair.split("=", 1)
        if name in out:
            raise RankRefineError(f"{flag} names {name!r} more than once")
        out[name] = path
    return out


def _cmd_run(args) -> tuple[int, str | None]:
    """The run's exit code, and its report unless ``--out`` takes it."""
    db = load_database(_parse_pairs(args.data, "--data"), _parse_pairs(args.schema, "--schema"))
    query = parse_query(Path(args.query).read_text(encoding="utf-8-sig"))
    constraints = parse_constraints(Path(args.constraints).read_text(encoding="utf-8-sig"))
    try:
        epsilon = parse_number(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise RankRefineError(f"--epsilon {args.epsilon!r} is not a number") from None
    config = RunConfig(
        query=query,
        db=db,
        constraints=constraints,
        epsilon=epsilon,
        kind=DistanceKind(args.distance),
        engine=args.engine,
        timeout_s=args.timeout_s,
        lp_dump=args.lp_dump,
    )
    result = _run_with_stdout_on_stderr(config)
    report = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    status = _STATUS_EXIT[result.status]
    if not args.out:
        return status, report
    Path(args.out).write_text(report + "\n", encoding="utf-8")
    if result.refined_sql:
        Path(args.out).with_suffix(".sql").write_text(
            result.refined_sql + "\n", encoding="utf-8")
    return status, None


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


def _cmd_bench(args) -> tuple[int, str]:
    from .bench import DEFAULT_REPEATS, run_suite  # `run` need not load it
    report = run_suite(args.suite, repeats=args.repeats or DEFAULT_REPEATS)
    if args.out:
        report.write_csv(args.out)
    return EXIT_REFINED, report.summary()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.out and Path(args.out).suffix == ".sql":
        parser.error("--out must not end in .sql, the refined SQL's own suffix")
    try:
        status, out = (_cmd_run if args.command == "run" else _cmd_bench)(args)
        if out is not None:
            try:
                print(out, flush=True)
            except BrokenPipeError:
                # whoever reads stdout has gone, which leaves the outcome as
                # it is; stdout now goes to the null device, so that the
                # interpreter's last flush does not raise again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return status
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # a non-UTF-8 input file raises UnicodeError
    except (RankRefineError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
