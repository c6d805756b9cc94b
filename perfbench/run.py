"""rankrefine benchmark: one closed-loop client refining queries through the
public library API, with every answer checked against the exhaustive oracle.

    python3 perfbench/run.py --workload roster-sweep --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports ``rankrefine`` from
``src/`` and exits with code 2 if that is missing.  ``--seed`` feeds the
input generator (see ``workloads.py``).  The client runs the workload's
request cycle, one request at a time from this one thread, for the whole
number of cycles that comes closest to ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import of ``rankrefine`` + ``load_csv`` of the resident
  relations + parsing the query and constraint sets; the median of
  SETUP_SAMPLES fresh interpreters: this process at the start, then a child
  probe after each whole cycle (the rest after the last), so that a slow
  phase of the host does not set every sample.
* ``latency_ms_p50`` / ``latency_ms_tail``: one request is ``run`` through
  ``result_to_dict`` against the resident relations.  The tail is the median
  over the run's cycles of each cycle's slowest request (``summary.tail``);
  the info line gives its percentile among all samples and the sample count.
* ``requests_per_s``: successful requests over the request phase's wall
  time, less the time spent probing set-up.
* ``ok_ratio``: 1 - failed_ratio, where failed counts exceptions, solver
  timeouts and answers that disagree with the ``naive+prov`` oracle; the info
  line breaks failures down by cause and by request.
* ``peak_rss_mb``: this process's peak resident set, read before the answer
  check (each workload runs in its own process).

``--trace 1`` runs every request twice, untraced and then traced, and
reports per-layer metrics from spans recorded by wrappers that ``spans.py``
puts around the package's functions for the traced call only.  Times are
means per traced request; counts are means per request over whole cycles,
so they repeat exactly for a given seed.  The traced report (without
timing) must equal the untraced one.  Spans and counts are written to
``.perfbench/traces/`` when the run ends.

The last line of stdout is the result object; the line before it holds the
environment, input sizes and failure details.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # inputs while running, oracle cache, traces

import summary  # noqa: E402
from spans import Target, Tracer, self_times  # noqa: E402
from workloads import TIMEOUT_S, WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 5


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rankrefine

    return rankrefine


def load_and_parse(rr, workload: Workload, files: dict[str, Path]):
    db = rr.Database()
    for name, path in sorted(files.items()):
        db.add(rr.load_csv(path, name=name))
    query = rr.parse_query(workload.query)
    constraints = [rr.parse_constraints(r.constraints) for r in workload.cycle]
    return db, query, constraints


def csv_files(directory: str) -> dict[str, Path]:
    return {p.stem: p for p in sorted(Path(directory).glob("*.csv"))}


def probe_setup(workload: Workload, directory: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--probe", directory],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def trace_targets(rr) -> list[Target]:
    engine = importlib.import_module("rankrefine.engine")
    build = importlib.import_module("rankrefine.milp.build")
    annotate = importlib.import_module("rankrefine.annotate")
    solver = importlib.import_module("rankrefine.milp.solver")

    def built(result):
        stats = result.stats
        return {
            "milp.build.variables": stats.get("variables", 0),
            "milp.build.rows": stats.get("rows", 0),
            "milp.build.binaries": stats.get("binaries", 0),
            "milp.build.encoded_tuples": stats.get("encoded_tuples", 0),
            "milp.build.pruned_tuples": stats.get("pruned_tuples", 0),
            "milp.build.nnz": sum(len(r.coeffs) for r in result.model.rows),
        }

    def solved(solution):
        return {
            "milp.solver.nodes": solution.stats.get("nodes", 0),
            "milp.solver.lp_iterations": solution.stats.get("lp_iterations", 0),
            "milp.solver.timeouts": int(solution.status == "timeout"),
        }

    targets = [
        Target(rr, "load_csv", "data.load", "data", lambda rel: {"data.rows_loaded": len(rel)}),
        Target(rr, "run", "engine.run", "engine"),
        Target(rr, "result_to_dict", "engine.report", "engine"),
        Target(engine, "build_model", "milp.build", "milp.build", built),
        Target(engine, "extract_refinement", "milp.build.extract", "milp.build"),
        Target(engine, "solve", "milp.solver.solve", "milp.solver", solved),
        Target(engine, "_verified_result", "engine.verify", "engine"),
        Target(solver, "linprog", "milp.solver.lp", "milp.solver"),
    ]
    for mod in (engine, build, annotate):
        targets.append(Target(mod, "joined_relation", "data.join", "data",
                              lambda rel: {"data.joined_rows": len(rel)}))
    for mod in (engine, build):
        targets.append(Target(mod, "annotate", "annotate.annotate", "annotate"))
        targets.append(Target(mod, "filter_annotated", "annotate.filter", "annotate"))
    return targets


def execute(rr, query, db, constraints, req):
    """One request; returns (seconds, result, report, error)."""
    t0 = time.perf_counter()
    try:
        result = rr.run(rr.RunConfig(query, db, constraints, Fraction(req.epsilon),
                                     rr.DistanceKind(req.distance), timeout_s=TIMEOUT_S))
        report = rr.result_to_dict(result, include_timing=False)
    except Exception as exc:  # counted as a failed request, not fatal
        return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, report, None


def answer(result) -> tuple[str, str | None]:
    """Status and exact distance, the part of a result the oracle decides."""
    if result.distance is None:
        return result.status, None
    return result.status, str(Fraction(result.distance))


def canonical(files: dict[str, Path], rank: str) -> list:
    """The inputs up to what no refinement can see.  Every ``ID`` becomes its
    row's position in ``rank`` order (ties in file order), every ``rank``
    value its dense rank, and each relation's rows are sorted by position,
    the rows of one ID kept in file order.  What the generator draws from
    ``--seed`` (ids, row order, rank magnitudes) leaves this unchanged, so
    inputs with equal forms pose the same problem and have the same answer."""
    tables = {}
    for name, path in sorted(files.items()):
        with open(path, newline="") as fh:
            tables[name] = list(csv.reader(fh))
    header, *rows = next(t for t in tables.values() if rank in t[0])
    ids, ranks = header.index("ID"), header.index(rank)
    ordered = sorted(rows, key=lambda r: -float(r[ranks]))
    position = {r[ids]: n for n, r in enumerate(ordered)}
    dense = {v: n for n, v in enumerate(sorted({float(r[ranks]) for r in rows}))}
    form = []
    for name, (header, *rows) in tables.items():
        ids = header.index("ID")
        rows = sorted(rows, key=lambda r: position[r[ids]])
        form.append([name, header, [
            [position[v] if h == "ID" else dense[float(v)] if h == rank else v
             for h, v in zip(header, r)] for r in rows]])
    return form


def oracle_key(files: dict[str, Path], query, query_text: str, req) -> str:
    form = canonical(files, query.order_by[0])
    text = json.dumps([form, query_text, req.constraints, req.epsilon, req.distance])
    return hashlib.sha256(text.encode()).hexdigest()


class OracleCache:
    """naive+prov answers keyed by the canonical form of the inputs and the
    request, kept across runs in the checkout, so a workload pays for each
    form's oracle once rather than once per seed."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def get(self, key: str, compute):
        if key not in self.entries:
            self.entries[key] = list(compute())
        return tuple(self.entries[key])

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        tmp.replace(self.path)


def check_answers(rr, workload, query, db, files, constraints, results, outcomes) -> None:
    """Mark every request whose status or exact distance differs from the
    naive+prov oracle's.  Runs after the timed phase."""
    cache = OracleCache(WORK / "oracle" / f"{workload.name}.json")
    keys: dict[str, str] = {}
    for n, (result, outcome) in enumerate(zip(results, outcomes)):
        if result is None:
            continue
        req, cons = workload.cycle[n % len(workload.cycle)], constraints[n % len(workload.cycle)]
        if req.label not in keys:
            keys[req.label] = oracle_key(files, query, workload.query, req)

        def oracle():
            return answer(rr.run(rr.RunConfig(query, db, cons, Fraction(req.epsilon),
                                              rr.DistanceKind(req.distance), engine="naive+prov")))

        expected = cache.get(keys[req.label], oracle)
        got = answer(result)
        if outcome.mismatch is None and got != expected:
            outcome.mismatch = f"milp+opt {got} != naive+prov {expected}"
    cache.save()


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer: Tracer, n: int) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced request) and each layer's share
    of traced request wall time."""
    selfs = self_times(tracer.spans)
    # sum first and divide once, so equal counts give bit-equal means
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    setup_load = 0.0
    for s, st in zip(tracer.spans, selfs):
        if s.request is None:
            if s.name == "data.load":
                setup_load += (s.end - s.start) * 1000
            continue
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start) * 1000
        own[s.name] = own.get(s.name, 0.0) + st * 1000
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + st * 1000
    counts: dict[str, float] = {}
    setup_rows = 0
    for (request, key), v in tracer.counts.items():
        if request is None:
            if key == "data.rows_loaded":
                setup_rows += v
            continue
        counts[key] = counts.get(key, 0) + v
    for table in (dur, own, layer_self, counts):
        for key in table:
            table[key] /= n

    pruned = counts.get("milp.build.pruned_tuples", 0.0)
    universe = pruned + counts.get("milp.build.encoded_tuples", 0.0)
    m = {
        "data.load_ms": (setup_load, "ms"),
        "data.rows_loaded": (setup_rows, "count"),
        "data.join_ms": (dur.get("data.join", 0.0), "ms"),
        "data.join_calls": (counts.get("data.join.calls", 0.0), "count"),
        "data.joined_rows": (counts.get("data.joined_rows", 0.0), "count"),
        "data.self_ms": (layer_self.get("data", 0.0), "ms"),
        "annotate.annotate_ms": (dur.get("annotate.annotate", 0.0), "ms"),
        "annotate.annotate_calls": (counts.get("annotate.annotate.calls", 0.0), "count"),
        "annotate.filter_ms": (dur.get("annotate.filter", 0.0), "ms"),
        "annotate.filter_calls": (counts.get("annotate.filter.calls", 0.0), "count"),
        "annotate.self_ms": (layer_self.get("annotate", 0.0), "ms"),
        "milp.build.self_ms": (own.get("milp.build", 0.0), "ms"),
        "milp.build.extract_ms": (dur.get("milp.build.extract", 0.0), "ms"),
        "milp.build.variables": (counts.get("milp.build.variables", 0.0), "count"),
        "milp.build.rows": (counts.get("milp.build.rows", 0.0), "count"),
        "milp.build.binaries": (counts.get("milp.build.binaries", 0.0), "count"),
        "milp.build.nnz": (counts.get("milp.build.nnz", 0.0), "count"),
        "milp.build.encoded_tuples": (counts.get("milp.build.encoded_tuples", 0.0), "count"),
        "milp.build.prune_ratio": (pruned / universe if universe else 0.0, "ratio"),
        "milp.solver.solve_ms": (dur.get("milp.solver.solve", 0.0), "ms"),
        "milp.solver.self_ms": (own.get("milp.solver.solve", 0.0), "ms"),
        "milp.solver.lp_ms": (dur.get("milp.solver.lp", 0.0), "ms"),
        "milp.solver.lp_calls": (counts.get("milp.solver.lp.calls", 0.0), "count"),
        "milp.solver.nodes": (counts.get("milp.solver.nodes", 0.0), "count"),
        "milp.solver.lp_iterations": (counts.get("milp.solver.lp_iterations", 0.0), "count"),
        "milp.solver.timeouts": (counts.get("milp.solver.timeouts", 0.0), "count"),
        "engine.verify_ms": (dur.get("engine.verify", 0.0), "ms"),
        "engine.self_ms": (layer_self.get("engine", 0.0), "ms"),
        "trace.request_ms": (dur.get("request", 0.0), "ms"),
    }
    wall = dur.get("request", 0.0)
    parts = {
        "data": layer_self.get("data", 0.0),
        "annotate": layer_self.get("annotate", 0.0),
        "milp.build": layer_self.get("milp.build", 0.0),
        "milp.solver": own.get("milp.solver.solve", 0.0),
        "milp.solver.lp": own.get("milp.solver.lp", 0.0),
        "engine": layer_self.get("engine", 0.0),
    }
    shares = {k: v / wall if wall else 0.0 for k, v in parts.items()}
    shares["sum_of_self_over_wall"] = sum(parts.values()) / wall if wall else 0.0
    return m, shares


def more_cycles(done: int, elapsed: float, seconds: float) -> bool:
    """Whether to start another whole cycle: the run's length is the whole
    number of cycles closest to ``seconds``, and at least one."""
    return done == 0 or elapsed + elapsed / done / 2 < seconds


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    resident_dir = work / "resident"
    resident_dir.mkdir(parents=True)
    files = workload.resident(resident_dir, seed)

    tracer = Tracer()
    if trace:
        rr = import_program()
        targets = trace_targets(rr)
        with tracer.patched(targets):
            db, query, constraints = load_and_parse(rr, workload, files)
        setup = []
    else:
        t0 = time.perf_counter()
        rr = import_program()
        db, query, constraints = load_and_parse(rr, workload, files)
        setup = [time.perf_counter() - t0]

    cycle = workload.cycle
    outcomes: list[summary.Outcome] = []
    results = []  # result, or None where the request raised
    traced_ms: list[float] = []
    paused_s = 0.0  # probing set-up
    start = time.perf_counter()
    i = 0
    while i % len(cycle) or more_cycles(i // len(cycle), time.perf_counter() - start - paused_s, seconds):
        req, cons = cycle[i % len(cycle)], constraints[i % len(cycle)]
        lat, result, report, err = execute(rr, query, db, cons, req)
        outcome = summary.Outcome(req.label, lat, None if result is None else result.status, err)
        if trace:
            tracer.request = i
            with tracer.patched(targets):
                t0 = time.perf_counter()
                with tracer.span("request", "engine"):
                    _, _, traced_report, traced_err = execute(rr, query, db, cons, req)
                traced_ms.append((time.perf_counter() - t0) * 1000)
            tracer.request = None
            if err is None and (traced_err is not None or traced_report != report):
                outcome.mismatch = f"traced run differs: {traced_err or traced_report}"
        outcomes.append(outcome)
        results.append(result)
        i += 1
        if not trace and i % len(cycle) == 0 and len(setup) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            setup.append(probe_setup(workload, str(resident_dir)))
            paused_s += time.perf_counter() - t0
    wall = time.perf_counter() - start - paused_s
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup(workload, str(resident_dir)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_answers(rr, workload, query, db, files, constraints, results, outcomes)
    fails = summary.failures(outcomes)

    # sizes, from the first cycle
    annotate = importlib.import_module("rankrefine.annotate")
    first = results[: len(cycle)]
    encoded = [r.model_stats.get("encoded_tuples", 0) for r in first if r is not None]
    sizes = {
        "rows_loaded": sum(len(rel) for rel in db.relations.values()),
        "joined_rows": len(annotate.joined_relation(query, db)),
        "encoded_tuples_mean": statistics.mean(encoded) if encoded else 0,
        "requests_per_cycle": len(cycle),
    }
    answers = {req.label: answer(r) if r is not None else None for req, r in zip(cycle, first)}
    # imported here, after the timed set-up, which rankrefine's own imports pay for
    import numpy
    import scipy

    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "sizes": sizes,
        "answers": answers,
        "failures": fails,
    }

    lat_ms = [o.latency_s * 1000 for o in outcomes]
    if trace:
        metrics, shares = layer_metrics(tracer, len(outcomes))
        metrics["trace.overhead_ms"] = (statistics.median(traced_ms) - statistics.median(lat_ms), "ms")
        info["layer_shares"] = shares
        out = WORK / "traces" / f"{workload.name}-seed{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(tracer.to_json()))
        info["trace_file"] = str(out.relative_to(ROOT))
    else:
        tail = summary.tail(lat_ms, len(cycle))
        ok = len(outcomes) - fails["failed"]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "latency_ms_p50": (statistics.median(lat_ms), "ms"),
            "latency_ms_tail": (tail["value"], "ms"),
            "requests_per_s": (ok / wall, "1/s"),
            "ok_ratio": (1.0 - fails["failed_ratio"], "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info["latency_tail"] = tail
        info["setup_samples_s"] = setup
    result = {
        "correct": fails["failed"] == 0,
        "attempted": fails["attempted"],
        "failed": fails["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rankrefine" / "__init__.py").is_file():
        print(f"no rankrefine package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe is not None:
        t0 = time.perf_counter()
        rr = import_program()
        load_and_parse(rr, workload, csv_files(args.probe))
        print(time.perf_counter() - t0)
        return 0

    work = WORK / "tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result, info = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
