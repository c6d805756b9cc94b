"""End-to-end refinement runs: compile, solve, extract, and re-verify.

Every distance is at least 0, so when the original query already meets the
constraints within epsilon it is the optimum, and the MILP engines answer
with it without running the solver.

Whatever the solver reports, the extracted refinement is re-evaluated from
scratch in exact arithmetic before being returned, so a "refined" result is
always a true certificate: its top-k prefixes deviate by at most epsilon and
its reported distance is the exact one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .annotate import Instance, filter_annotated, prepared
# not called here; kept importable because perfbench's traced run wraps them
from .annotate import annotate, joined_relation  # noqa: F401
from .constraints import ConstraintSet, deviation
from .data import Database, format_number
from .distances import JACCARD, KENDALL, PRED, DistanceKind, dis_jaccard, dis_kendall, dis_pred
from .errors import InternalConsistencyError, PreconditionError
from .milp import BuildOptions, SolveOptions, build_model, extract_refinement, solve, write_lp
from .oracle import exhaustive_solve
from .query import Query, Refinement, apply_refinement, render_sql

ENGINES = ("milp", "milp+opt", "naive", "naive+prov")

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
    prune: bool = True   # milp+opt only
    merge: bool = True   # milp+opt only
    relax: bool = True   # milp+opt only
    lp_dump: str | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise PreconditionError(f"unknown engine {self.engine!r}")


@dataclass
class RefineResult:
    status: str
    refinement: Refinement | None = None
    refined_sql: str | None = None
    distance: Fraction | int | None = None
    deviation: Fraction | None = None
    topk: list[dict] = field(default_factory=list)
    timing_ms: dict = field(default_factory=dict)
    model_stats: dict = field(default_factory=dict)


def _verified_result(config: RunConfig, instance: Instance, ref: Refinement,
                     status: str, timing: dict, stats: dict) -> RefineResult:
    """Re-evaluate the refined query exactly over the prepared instance and
    package the certificate.

    Deviation, distance and the top-k listing read only the refined
    ranking's first k* tuples, so the filter stops there; a shorter ranking
    means it reached the end of the instance.  A failed check raises
    InternalConsistencyError whose message carries the refinement and the
    model stats.
    """
    def inconsistent(message: str) -> InternalConsistencyError:
        detail = json.dumps({"refinement": _refinement_dict(ref),
                             "model_stats": _public_stats(stats)}, sort_keys=True)
        return InternalConsistencyError(f"{message}; {detail}")

    q, cs = config.query, config.constraints
    q2 = apply_refinement(q, ref)
    tuples_by_id = instance.tuples_by_id
    k_star = cs.k_star
    ranking = filter_annotated(instance, q2, instance.key_attrs, limit=k_star)
    if len(ranking) < k_star:
        raise inconsistent(
            f"refined query returns {len(ranking)} tuples, fewer than k*={k_star}")
    dev = deviation(ranking, tuples_by_id, cs)
    if dev > config.epsilon:
        raise inconsistent(
            f"refined query deviates by {dev}, above epsilon {config.epsilon}")
    if config.kind.name == PRED:
        dist = dis_pred(q, q2)
    else:
        original = instance.original_ranking
        if config.kind.name == JACCARD:
            dist = dis_jaccard(original, ranking, k_star)
        else:
            dist = dis_kendall(original, ranking, k_star)
    topk = []
    for pos, tid in enumerate(ranking, start=1):
        groups = [c.label() for c in cs if c.contains(tuples_by_id[tid])]
        topk.append({"position": pos, "tid": tid, "groups": groups})
    return RefineResult(
        status=status,
        refinement=ref,
        refined_sql=render_sql(q2),
        distance=dist,
        deviation=dev,
        topk=topk,
        timing_ms=timing,
        model_stats=stats,
    )


def run(config: RunConfig) -> RefineResult:
    """One request: search and verify over the query's prepared instance,
    which the database keeps across requests until its relations change.
    ``setup_ms`` covers the preparation, when this request made it, and, for
    the MILP engines, the model build."""
    t0 = time.monotonic()
    q = config.query
    instance = prepared(q, config.db)
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
    oracle = exhaustive_solve(
        config.query,
        config.db,
        config.constraints,
        config.epsilon,
        config.kind,
        use_provenance=(config.engine == "naive+prov"),
    )
    timing = {"setup_ms": 0.0, "solve_ms": (time.monotonic() - t0) * 1000.0}
    stats = {"candidates_checked": oracle.candidates_checked}
    if oracle.status == NO_REFINEMENT:
        return RefineResult(status=NO_REFINEMENT, model_stats=stats, timing_ms=timing)
    return _verified_result(config, instance, oracle.refinement, REFINED, timing, stats)


def _run_milp(config: RunConfig, instance: Instance) -> RefineResult:
    opt = config.engine == "milp+opt"
    options = BuildOptions(
        relevancy_prune=opt and config.prune,
        merge_lineage=opt and config.merge,
        relax_single_sense=opt and config.relax,
    )
    t0 = time.monotonic()
    built = build_model(config.query, config.db, config.constraints,
                        config.epsilon, config.kind, options)
    setup_ms = (time.monotonic() - t0) * 1000.0
    if config.lp_dump:
        write_lp(built.model, config.lp_dump)
    # checked after the build, which still raises on bad input and reports
    # the model's size
    cs, original = config.constraints, instance.original_ranking
    if (len(original) >= cs.k_star
            and deviation(original, instance.tuples_by_id, cs) <= config.epsilon):
        # no distance is below 0, so the original query is the optimum
        timing = {"setup_ms": setup_ms, "solve_ms": 0.0}
        stats = {**built.stats, "nodes": 0, "mip_gap": 0.0, "dual_bound": 0.0}
        return _verified_result(config, instance, Refinement.unchanged(config.query),
                                REFINED, timing, stats)
    t1 = time.monotonic()
    solution = solve(built.model, SolveOptions(timeout_s=config.timeout_s))
    solve_ms = (time.monotonic() - t1) * 1000.0
    timing = {"setup_ms": setup_ms, "solve_ms": solve_ms}
    stats = dict(built.stats)
    stats.update(solution.stats)
    if solution.status == "infeasible":
        return RefineResult(status=NO_REFINEMENT, timing_ms=timing, model_stats=stats)
    if solution.status == "timeout" and not solution.assignment:
        return RefineResult(status=TIMEOUT, timing_ms=timing, model_stats=stats)
    ref = extract_refinement(built, solution)
    status = TIMEOUT if solution.status == "timeout" else REFINED
    return _verified_result(config, instance, ref, status, timing, stats)


def _public_stats(stats: dict) -> dict:
    """Model stats as reported: everything but the solver's wall time."""
    return {k: v for k, v in stats.items() if k != "wall_s"}


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
        "topk": result.topk,
        "model_stats": _public_stats(result.model_stats),
    }
    if result.refinement is not None:
        out["refinement"] = _refinement_dict(result.refinement)
    if include_timing:
        out["timing_ms"] = {k: round(v, 3) for k, v in result.timing_ms.items()}
    return out
