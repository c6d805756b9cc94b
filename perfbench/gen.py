"""Seeded synthetic inputs for the benchmark.

Two shapes, both written as CSV with fixed formatting, so one pair of seeds
always gives byte-identical files:

* a single-table astronaut roster (``Astronauts``), ranked by flight hours;
* a two-table student/activity pair (``Students`` NATURAL JOIN ``Activities``
  on ``ID``), ranked by SAT.

Each writer takes two seeds.  ``seed`` draws the structure: every row's
group, categories, numeric predicate value and rank position.  ``surface``
draws what a refinement cannot see: file row order, ID values and the
magnitudes of the rank attribute (order kept).  Two files with the same
``seed`` and different ``surface`` pose the same refinement problem under
different tuple ids, so no cache keyed on the input can hit while the
solver's work stays the same.

Knobs (in the specs):

* ``fanout``: activities per student, an inclusive ``(lo, hi)`` range.  It
  sets the join's size, and under ``SELECT DISTINCT ID, Gender, Income`` it is
  how often each DISTINCT key repeats.
* ``corr``: group<->rank correlation in [0, 1].  A row's rank score is
  ``uniform(0, 1) + corr`` for men and ``uniform(0, 1)`` for women, so at 0
  rank is independent of gender and at 1 every man outranks every woman.
* ``grid``: number of distinct values of the numeric predicate attribute;
  coarser grids mean fewer lineage classes and a smaller refinement space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

STATUSES = ("Active", "Retired", "Management")
INCOMES = ("Low", "Medium", "High")
ACTIVITIES = ("GD", "RB", "SO")
ROSTER_FEMALE_SHARE = 0.4
JOIN_FEMALE_SHARE = 0.5


@dataclass(frozen=True)
class RosterSpec:
    rows: int = 60
    grid: int = 6  # Space_Flights takes values 0 .. grid-1
    corr: float = 0.5


@dataclass(frozen=True)
class JoinSpec:
    students: int = 6_000
    fanout: tuple[int, int] = (1, 2)
    grid: int = 4  # GPA takes grid values 3.0, 3.1, ...
    corr: float = 0.5


def rank_order(rng: random.Random, female: list[bool], corr: float) -> list[int]:
    """Row indices from best to worst rank, men lifted by ``corr``."""
    scores = [rng.random() + (0.0 if f else corr) for f in female]
    return sorted(range(len(female)), key=lambda i: (-scores[i], i))


def rank_values(rng: random.Random, order: list[int], lo: int, step: int) -> list[int]:
    """Distinct integers, descending along ``order``, with random gaps of
    1..``step``; ``out[i]`` is row i's value."""
    out = [0] * len(order)
    value = lo
    for i in reversed(order):
        value += rng.randint(1, step)
        out[i] = value
    return out


def distinct_ids(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1, 10 * n + 1), n)


def _write(path: Path, header: list[str], rows: list[list[object]]) -> None:
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_roster(directory: Path, seed: int, surface: int,
                 spec: RosterSpec = RosterSpec()) -> dict[str, Path]:
    """Write ``Astronauts.csv`` into ``directory``; returns {relation: path}."""
    rng = random.Random(seed)
    female = [rng.random() < ROSTER_FEMALE_SHARE for _ in range(spec.rows)]
    order = rank_order(rng, female, spec.corr)
    status = [rng.choice(STATUSES) for _ in range(spec.rows)]
    flights = [rng.randrange(spec.grid) for _ in range(spec.rows)]

    srng = random.Random(surface)
    hours = rank_values(srng, order, 100, 150)
    ids = distinct_ids(srng, spec.rows)
    rows = [[ids[i], "F" if female[i] else "M", status[i], flights[i],
             srng.randrange(10), hours[i]] for i in range(spec.rows)]
    srng.shuffle(rows)
    path = Path(directory) / "Astronauts.csv"
    _write(path, ["ID", "Gender", "Status", "Space_Flights", "Space_Walks", "Flight_Hours"], rows)
    return {"Astronauts": path}


def write_join(directory: Path, seed: int, surface: int,
               spec: JoinSpec = JoinSpec()) -> dict[str, Path]:
    """Write ``Students.csv`` and ``Activities.csv`` into ``directory``.

    A student's activity rows keep their relative order under every
    ``surface``: the join breaks SAT ties by tuple id, which follows that
    order, so it decides which row represents a DISTINCT key."""
    rng = random.Random(seed)
    n = spec.students
    female = [rng.random() < JOIN_FEMALE_SHARE for _ in range(n)]
    order = rank_order(rng, female, spec.corr)
    income = [rng.choice(INCOMES) for _ in range(n)]
    gpa = [30 + rng.randrange(spec.grid) for _ in range(n)]
    lo, hi = spec.fanout
    acts = [[rng.choice(ACTIVITIES) for _ in range(rng.randint(lo, hi))] for _ in range(n)]

    srng = random.Random(surface)
    sat = rank_values(srng, order, 400, 3)
    ids = distinct_ids(srng, n)
    students = [[ids[i], "F" if female[i] else "M", income[i],
                 f"{gpa[i] // 10}.{gpa[i] % 10}", sat[i]] for i in range(n)]
    srng.shuffle(students)
    # interleave students' activity lists at random, each list in order
    pending = [[ids[i], list(reversed(acts[i]))] for i in range(n) if acts[i]]
    activities = []
    while pending:
        j = srng.randrange(len(pending))
        sid, rest = pending[j]
        activities.append([sid, rest.pop()])
        if not rest:
            pending[j] = pending[-1]
            pending.pop()
    directory = Path(directory)
    _write(directory / "Students.csv", ["ID", "Gender", "Income", "GPA", "SAT"], students)
    _write(directory / "Activities.csv", ["ID", "Activity"], activities)
    return {"Students": directory / "Students.csv", "Activities": directory / "Activities.csv"}
