"""End-to-end refinement runs: compile, solve, extract, and re-verify.

Every distance is at least 0, so when the original query already meets the
constraints within epsilon it is the optimum, and the MILP engines answer
with it without running the solver.

Whatever the solver reports, the extracted refinement is re-evaluated from
scratch in exact arithmetic before being returned, so a "refined" result is
always a true certificate: its top-k prefixes deviate by at most epsilon and
its reported distance is the exact one.

Each ranking a request checks gets one membership pass, one ``contains`` per
(top-k* tuple, constraint) pair, which its deviation and its top-k group
listing both read: one pass when the original query settles the request,
two (the original's and the refinement's) when the solver runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import compress
from numbers import Real
from typing import NamedTuple

from .annotate import Instance, filter_annotated, preparation
# not called here; kept importable because perfbench's traced run wraps them
from .annotate import annotate, joined_relation  # noqa: F401
from .constraints import ConstraintSet, deviation, memberships
from .data import Database, format_number
from .distances import DistanceKind, distance
from .errors import InternalConsistencyError, PreconditionError
from .milp import (BuildOptions, SolveOptions, build_model, extract_refinement, solve, solver,
                   write_lp)
from .oracle import exhaustive_solve
from .query import Query, Refinement, apply_refinement, render_sql

# the whole model configuration of each MILP engine; ``milp`` has every optimization off
BUILD_OPTIONS = {"milp": BuildOptions(), "milp+opt": BuildOptions(True, True, True)}
ENGINES = (*BUILD_OPTIONS, "naive", "naive+prov")

REFINED = "refined"
NO_REFINEMENT = "no_refinement"
TIMEOUT = "timeout"


@dataclass
class RunConfig:
    query: Query
    db: Database
    constraints: ConstraintSet
    epsilon: Fraction
    kind: DistanceKind
    engine: str = "milp+opt"
    timeout_s: float | None = None
    lp_dump: str | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise PreconditionError(f"unknown engine {self.engine!r}")
        t = self.timeout_s
        if t is not None and not (isinstance(t, Real) and t >= 0):  # NaN fails >= 0
            raise PreconditionError(f"timeout_s must be a non-negative number, got {t!r}")


class TopkRow(NamedTuple):
    """One tuple of the verified top-k*: its position, its id and the labels
    of the constraint groups it belongs to."""

    position: int
    tid: int
    groups: tuple[str, ...]


@dataclass(slots=True)
class RefineResult:
    status: str
    refinement: Refinement | None = None
    refined_sql: str | None = None
    distance: Fraction | int | None = None
    deviation: Fraction | None = None
    topk: list[TopkRow] = field(default_factory=list)
    timing_ms: dict = field(default_factory=dict)
    model_stats: dict = field(default_factory=dict)


MAX_INTERNED = 4096  # the most values one instance interns for its results


def _interned(table: dict, value):
    """The equal value ``table`` holds; it takes ``value`` while it has room."""
    return table.setdefault(value, value) if len(table) < MAX_INTERNED else table.get(value, value)


def _verified_result(config: RunConfig, instance: Instance, ref: Refinement,
                     status: str, timing: dict, stats: dict, *,
                     ranking: list[int] | None = None,
                     members: list[list[bool]] | None = None,
                     dev: Fraction | None = None) -> RefineResult:
    """Re-evaluate the refined query exactly over the prepared instance and
    package the certificate.

    A caller may keep every result, so equal answers share their interned
    top-k rows and refined SQL; the unchanged query's SQL is the instance's.
    Deviation, distance and the top-k listing read only the refined
    ranking's first k* tuples, so the filter stops there; a shorter ranking
    means it reached the end of the instance.  One membership pass over
    them gives the deviation and each row's groups.  A caller that holds
    the tuples (the unchanged query's, from the instance) passes them as
    ``ranking``, their pass as ``members`` and its deviation as ``dev``,
    and nothing is filtered or tested again; every check still runs.
    A failed check raises InternalConsistencyError whose message carries
    the refinement and the model stats.
    """
    def inconsistent(message: str) -> InternalConsistencyError:
        detail = json.dumps({"refinement": _refinement_dict(ref),
                             "model_stats": stats}, sort_keys=True)
        return InternalConsistencyError(f"{message}; {detail}")

    q, cs, table = config.query, config.constraints, instance.interned
    unchanged = ref is instance.unchanged  # the query itself, whose SQL the instance holds
    q2 = q if unchanged else apply_refinement(q, ref)
    tuples_by_id = instance.tuples_by_id
    k_star = cs.k_star
    if ranking is None:
        ranking = filter_annotated(instance, q2, limit=k_star)
    if len(ranking) < k_star:
        raise inconsistent(
            f"refined query returns {len(ranking)} tuples, fewer than k*={k_star}")
    if members is None:
        members = memberships(ranking, tuples_by_id, cs)
        dev = deviation(ranking, tuples_by_id, cs, members)
    if dev > config.epsilon:
        raise inconsistent(
            f"refined query deviates by {dev}, above epsilon {config.epsilon}")
    dist = distance(config.kind, q, q2, instance.original_ranking, ranking, k_star)
    topk = [_interned(table, TopkRow(pos, tid, tuple(compress(cs.labels, inside))))
            for pos, (tid, inside) in enumerate(zip(ranking, zip(*members)), start=1)]
    sql = instance.unchanged_sql if unchanged else _interned(table, render_sql(q2))
    return RefineResult(status=status, refinement=ref, refined_sql=sql, distance=dist,
                        deviation=dev, topk=topk, timing_ms=timing, model_stats=stats)


def run(config: RunConfig) -> RefineResult:
    """One request: search and verify over the query's prepared instance,
    which the database keeps across requests until its relations change.
    ``setup_ms`` covers the preparation, when this request made it, and, for
    the MILP engines, the model build; a request that repeats the
    constraints, distance, options and epsilon of a model the database
    keeps is served that model instead (see ``milp.build``).  The result's
    ``model_stats`` are its own, copied from the kept model's.

    The constraints are checked against the joined schema here, once the
    instance is prepared, and every later step reads them as checked."""
    t0 = time.monotonic()
    instance = preparation(config.query, config.db)
    if (cs := config.constraints.over(instance.schema)) is not config.constraints:
        config = replace(config, constraints=cs)
    prepare_ms = (time.monotonic() - t0) * 1000.0
    if config.engine in ("naive", "naive+prov"):
        result = _run_oracle(config, instance)
    else:
        result = _run_milp(config, instance)
    result.timing_ms["setup_ms"] += prepare_ms
    result.timing_ms["total_ms"] = (time.monotonic() - t0) * 1000.0
    return result


def _run_oracle(config: RunConfig, instance: Instance) -> RefineResult:
    t0 = time.monotonic()
    oracle = exhaustive_solve(config.query, config.db, config.constraints, config.epsilon,
                              config.kind, use_provenance=(config.engine == "naive+prov"),
                              instance=instance)
    timing = {"setup_ms": 0.0, "solve_ms": (time.monotonic() - t0) * 1000.0}
    stats = {"candidates_checked": oracle.candidates_checked}
    if oracle.status == NO_REFINEMENT:
        return RefineResult(status=NO_REFINEMENT, model_stats=stats, timing_ms=timing)
    return _verified_result(config, instance, oracle.refinement, REFINED, timing, stats)


def _run_milp(config: RunConfig, instance: Instance) -> RefineResult:
    t0 = time.monotonic()
    built = build_model(config.query, config.db, config.constraints, config.epsilon,
                        config.kind, BUILD_OPTIONS[config.engine], instance=instance)
    setup_ms = (time.monotonic() - t0) * 1000.0
    if config.lp_dump:
        write_lp(built.model, config.lp_dump)
    # the database keeps ``built`` for later requests, so a report that a
    # caller edits must not share its stats; each is made at its final size
    def own_stats(counters: dict) -> dict:
        return {**built.stats, "rows_by_family": dict(built.stats["rows_by_family"]), **counters}
    # checked after the build, which still raises on bad input and reports
    # the model's size
    cs, tuples_by_id = config.constraints, instance.tuples_by_id
    if len(instance.original_ranking) >= cs.k_star:
        ranking = list(instance.original_ranking[:cs.k_star])
        members = memberships(ranking, tuples_by_id, cs)
        dev = deviation(ranking, tuples_by_id, cs, members)
        if dev <= config.epsilon:
            # no distance is below 0, so the original query is the optimum
            timing = {"setup_ms": setup_ms, "solve_ms": 0.0}
            stats = own_stats({"nodes": 0, "lp_iterations": 0, "mip_gap": 0.0, "dual_bound": 0.0})
            return _verified_result(config, instance, instance.unchanged, REFINED, timing, stats,
                                    ranking=ranking, members=members, dev=dev)
    t1 = time.monotonic()
    solver.bindings()  # numpy and HiGHS load at a process's first solve, timed as set-up
    t2 = time.monotonic()
    solution = solve(built.model, SolveOptions(timeout_s=config.timeout_s))
    timing = {"setup_ms": setup_ms + (t2 - t1) * 1000.0,
              "solve_ms": (time.monotonic() - t2) * 1000.0}
    stats = own_stats(solution.stats)
    if solution.status == "infeasible":
        return RefineResult(status=NO_REFINEMENT, timing_ms=timing, model_stats=stats)
    if solution.status == "timeout" and not solution.values:
        return RefineResult(status=TIMEOUT, timing_ms=timing, model_stats=stats)
    ref = extract_refinement(built, solution)
    status = TIMEOUT if solution.status == "timeout" else REFINED
    return _verified_result(config, instance, ref, status, timing, stats)


def _refinement_dict(ref: Refinement) -> dict:
    return {
        "numeric": {
            f"{attr} {op}": format_number(v)
            for (attr, op), v in sorted(ref.numeric_constants.items())
        },
        "categorical": {attr: sorted(vals) for attr, vals in sorted(ref.cat_values.items())},
    }


def result_to_dict(result: RefineResult, include_timing: bool = True) -> dict:
    """JSON-ready form; deterministic apart from the timing block."""
    def num(x):
        if isinstance(x, Fraction):
            return format_number(x)
        return x

    out = {
        "status": result.status,
        "refined_sql": result.refined_sql,
        "distance": num(result.distance),
        "deviation": num(result.deviation),
        "topk": [row._asdict() for row in result.topk],
        "model_stats": dict(result.model_stats),
    }
    if result.refinement is not None:
        out["refinement"] = _refinement_dict(result.refinement)
    if include_timing:
        out["timing_ms"] = {k: round(v, 3) for k, v in result.timing_ms.items()}
    return out
