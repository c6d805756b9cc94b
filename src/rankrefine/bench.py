"""Benchmark harness: run scenario files across parameter sweeps and report
setup/solve/total wall-clock timings averaged over repeats.

A scenario is a JSON file referencing data, a query, and constraints, plus an
optional sweep over one experiment axis:

    {
      "name": "students-k-sweep",
      "data": {"Students": "students.csv", "Activities": "activities.csv"},
      "schemas": {"Students": "students.schema.json"},        # optional
      "query": "query.sql",
      "constraints": "constraints.json",
      "distances": ["pred"],
      "engines": ["milp+opt"],
      "epsilon": "0.5",
      "timeout_s": 30,
      "sweep": {"axis": "k", "values": [2, 3, 4]}
    }

Axes: k (constraint prefix length; entries may carry "n_ratio" instead of a
fixed "n"), epsilon, constraint_count (prefix of the constraint list),
constraint_type (lower / upper / both filter), scale (row-count truncation of
every relation).  Relative paths resolve against the scenario file.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .constraints import ConstraintSet, read_constraint, read_constraints, read_count
from .data import Database, Relation, load_database, parse_number
from .distances import DistanceKind
from .engine import RunConfig, run
from .errors import ConstraintValidationError, PreconditionError, RankRefineError
from .query import parse_query

DEFAULT_REPEATS = 5

_AXES = ("k", "epsilon", "constraint_count", "constraint_type", "scale")
_FIELD_TYPES = {"data": dict, "schemas": dict, "sweep": dict, "engines": list, "distances": list}


@dataclass
class BenchRow:
    scenario: str
    axis: str
    value: object
    engine: str
    distance: str
    status: str
    distance_value: str = ""
    setup_ms: float = 0.0
    solve_ms: float = 0.0
    total_ms: float = 0.0
    model_vars: int = 0
    model_rows: int = 0
    repeats: int = 0
    error: str = ""


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        fields = [f for f in BenchRow.__dataclass_fields__]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in self.rows:
                writer.writerow([getattr(row, f) for f in fields])

    def summary(self) -> str:
        header = f"{'scenario':24} {'axis':16} {'value':>8} {'engine':10} " \
                 f"{'dist':8} {'status':14} {'setup':>9} {'solve':>9} {'total':>9}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.scenario:24} {r.axis:16} {str(r.value):>8} {r.engine:10} "
                f"{r.distance:8} {r.status:14} {r.setup_ms:9.2f} "
                f"{r.solve_ms:9.2f} {r.total_ms:9.2f}")
        return "\n".join(lines)


def _load_constraint_entries(path: Path) -> list[dict]:
    entries = json.loads(path.read_text(encoding="utf-8-sig"))
    if not isinstance(entries, list):
        raise PreconditionError(f"{path}: constraint file must be a JSON array")
    return entries


def materialize_constraints(entries: list[dict], k_override: int | None = None) -> ConstraintSet:
    """Turn raw constraint JSON entries into a ConstraintSet, resolving the
    k-sweep template: with a k override, every entry's prefix length becomes
    the override and a relative bound "n_ratio" becomes max(1, floor(k*ratio)).
    A malformed entry is an error that names it, as in ``parse_constraints``."""
    def read(e: dict):
        k = k_override if k_override is not None else read_count(e["k"], "k")
        if "n" in e and k_override is None:
            n = read_count(e["n"], "n")
        elif "n_ratio" in e:
            n = max(1, math.floor(k * _read_ratio(e["n_ratio"])))
        elif "n" in e:
            n = min(read_count(e["n"], "n"), k)
        else:
            raise ConstraintValidationError("constraint entry needs 'n' or 'n_ratio'")
        return read_constraint(e, k, n)
    return read_constraints(entries, read)


def _read_ratio(value) -> Fraction:
    """A finite "n_ratio", exactly as written: JSON 0.34 is 17/50, and a boolean is no number."""
    try:
        if not isinstance(value, bool):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        pass
    raise ConstraintValidationError(f"n_ratio must be a finite number, got {value!r}")


@dataclass
class Scenario:
    name: str
    path: Path
    raw: dict
    # (scale, database) of the last sweep point, so that the points of one
    # scale share one database and so one prepared instance
    loaded: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        """The scenario file ``path``; a field of the wrong shape is invalid."""
        path = Path(path)
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
        if not isinstance(raw, dict):
            raise PreconditionError(f"{path}: a scenario must be a JSON object")
        for name, kind in _FIELD_TYPES.items():
            if not isinstance(raw.get(name, kind()), kind):
                raise PreconditionError(f"{path}: scenario field {name!r} must be a JSON "
                                        f"{'object' if kind is dict else 'array'}")
        sweep = raw.get("sweep")
        if sweep and (sweep.get("axis") not in _AXES or not isinstance(sweep.get("values"), list)):
            raise PreconditionError(f"{path}: scenario field 'sweep' needs an axis of {_AXES} "
                                    "and a list of 'values'")
        return cls(raw.get("name", path.stem), path, raw)

    def _resolve(self, rel_path: str) -> Path:
        return self.path.parent / rel_path

    def database(self, scale: int | None = None) -> Database:
        if self.loaded is None or self.loaded[0] != scale:
            self.loaded = (scale, self._load(scale))
        return self.loaded[1]

    def _load(self, scale: int | None) -> Database:
        db = load_database(
            {name: self._resolve(path) for name, path in self.raw["data"].items()},
            {name: self._resolve(path) for name, path in self.raw.get("schemas", {}).items()})
        if scale is not None:
            for rel in list(db.relations.values()):
                db.add(Relation(rel.name, rel.schema, tuple(c[:scale] for c in rel.columns)))
        return db

    def sweep_points(self) -> list[tuple[str, object]]:
        sweep = self.raw.get("sweep")
        return [(sweep["axis"], v) for v in sweep["values"]] if sweep else [("none", "-")]

    def configs(self, axis: str, value) -> list[RunConfig]:
        query = parse_query(self._resolve(self.raw["query"]).read_text(encoding="utf-8-sig"))
        entries = _load_constraint_entries(self._resolve(self.raw["constraints"]))
        epsilon = parse_number(str(self.raw.get("epsilon", "0.5")))
        if axis in ("k", "constraint_count", "scale"):
            value = read_count(value, f"a {axis} sweep value")
        if axis in ("constraint_count", "scale") and value < 0:  # a slice would drop the tail
            raise PreconditionError(f"a {axis} sweep value must not be negative, got {value}")
        if axis == "constraint_count":
            entries = entries[:value]
        constraints = materialize_constraints(entries, value if axis == "k" else None)
        if axis == "constraint_type":
            kept = tuple(c for c in constraints if value in ("both", c.sense))
            if not kept:
                raise PreconditionError(f"no {value} constraints in scenario")
            constraints = ConstraintSet(kept)
        elif axis == "epsilon":
            epsilon = parse_number(str(value))

        db = self.database(value if axis == "scale" else None)
        configs = []
        for engine in self.raw.get("engines", ["milp+opt"]):
            for dist in self.raw.get("distances", ["pred"]):
                configs.append(RunConfig(
                    query=query,
                    db=db,
                    constraints=constraints,
                    epsilon=epsilon,
                    kind=DistanceKind(dist),
                    engine=engine,
                    timeout_s=self.raw.get("timeout_s"),
                ))
        return configs


def run_scenario(scenario: Scenario, repeats: int = DEFAULT_REPEATS) -> list[BenchRow]:
    rows: list[BenchRow] = []
    for axis, value in scenario.sweep_points():
        try:
            configs = scenario.configs(axis, value)
        except (RankRefineError, OSError, KeyError, ValueError) as exc:
            rows.append(BenchRow(scenario.name, axis, value, "-", "-", "error", error=str(exc)))
            continue
        for config in configs:
            rows.append(_timed_run(scenario.name, axis, value, config, repeats))
    return rows


def _timed_run(name: str, axis: str, value, config: RunConfig, repeats: int) -> BenchRow:
    setups, solves, totals = [], [], []
    result = None
    try:
        run(config)  # warm-up, excluded from timings
        for _ in range(repeats):
            t0 = time.monotonic()
            result = run(config)
            wall = (time.monotonic() - t0) * 1000.0
            setups.append(result.timing_ms.get("setup_ms", 0.0))
            solves.append(result.timing_ms.get("solve_ms", 0.0))
            totals.append(wall)
    except RankRefineError as exc:
        return BenchRow(name, axis, value, config.engine, config.kind.name, "error",
                        error=str(exc))
    return BenchRow(
        scenario=name,
        axis=axis,
        value=value,
        engine=config.engine,
        distance=config.kind.name,
        status=result.status,
        distance_value="" if result.distance is None else str(result.distance),
        setup_ms=statistics.fmean(setups),
        solve_ms=statistics.fmean(solves),
        total_ms=statistics.fmean(totals),
        model_vars=result.model_stats.get("variables", 0),
        model_rows=result.model_stats.get("rows", 0),
        repeats=repeats,
    )


def run_suite(suite_dir: str | Path, repeats: int = DEFAULT_REPEATS) -> BenchReport:
    """Run every *.scenario.json under ``suite_dir``; failures are recorded as
    error rows and the suite continues."""
    report = BenchReport()
    paths = sorted(Path(suite_dir).glob("*.scenario.json"))
    if not paths:
        raise PreconditionError(f"no *.scenario.json files under {suite_dir}")
    for path in paths:
        try:
            scenario = Scenario.load(path)
        except (RankRefineError, OSError, ValueError) as exc:
            report.rows.append(BenchRow(path.stem, "-", "-", "-", "-", "error", error=str(exc)))
            continue
        report.rows.extend(run_scenario(scenario, repeats))
    return report
