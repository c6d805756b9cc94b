"""The model HiGHS receives, pinned, and the size figures reported for it.

The digests were recorded before the builder moved from name-keyed row
dicts to column-indexed arrays, from each golden scenario's model as HiGHS
received it: column bounds, costs, integrality and names, the objective
offset, row bounds and names, and the matrix.  Any change to the encoding,
its column, row or entry order, or its names changes them.  The
``astronauts`` and ``scholarship`` ``milp+opt`` digests were recorded again
when relevancy pruning moved from lineage classes to dominance, which
encodes fewer tuples there.  All of them were recorded again when the
position rows became running counts, one per tuple that needs a top-k
binary and each set from the one before it, and the single-sense
relaxation came to drop only the ``top_lo`` rows of lower-bound requests.
The ``kendall`` digests and the ``scholarship`` ``jaccard`` ones were
recorded again when the Kendall objective became one row per original
top-k* tuple and the outcome distances stopped giving a top-k* binary to
the other tuples.

The prepared instance keeps built models, and a request that repeats one's
constraints, distance, options and epsilon is served the kept result
itself, which nothing writes to after its build.  So each pinned model is
also built warm, on one database shared with builds at another k*, under
the other engine and for the other distances, each kept model keeps its
digest while requests at other epsilons run beside it, and the models and
reports along an epsilon sequence are checked against cold ones.
"""

import hashlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from test_golden import DATA, GOLDEN, RELATIONS, SCENARIOS, _args

import rankrefine
from rankrefine.cli import main
from rankrefine.constraints import ConstraintSet, parse_constraints
from rankrefine.data import Database, load_csv
from rankrefine.distances import JACCARD, KENDALL, PRED, DistanceKind
from rankrefine.engine import BUILD_OPTIONS, RunConfig, result_to_dict, run
from rankrefine.errors import RankRefineError
from rankrefine.milp import solver
from rankrefine.milp import build as build_module
from rankrefine.milp.build import KEPT_MODELS, ROW_FAMILIES, build_model
from rankrefine.query import parse_query

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (scenario, distance, epsilon, engine) -> sha256 of the loaded model; the
# golden cases missing here are rejected before a model is built
DIGESTS = {
    ("astronauts", "jaccard", "0", "milp"):
        "190d261cadb31b0f66d63b37a1e08b9cdeb0e842b53c8ca755acfefcb63b15dc",
    ("astronauts", "jaccard", "0", "milp+opt"):
        "cd10abbe63c1a416bc6b8902a189136e7761fe70f374eb10cf1c02adf34f7a7e",
    ("astronauts", "jaccard", "1/2", "milp"):
        "302d98b90037f280bd1ceca0d62e5a33fa7a5fe637d84906d784ba07a5107a8e",
    ("astronauts", "jaccard", "1/2", "milp+opt"):
        "fce9b787aba98a66581917625fd716b87248d11c89682c044a93935e02b0ab09",
    ("astronauts", "kendall", "0", "milp"):
        "cca5597d0af324ac609aedd098d3681c347c882d8605e074ce609848b9a3deaa",
    ("astronauts", "kendall", "0", "milp+opt"):
        "4a19ac1459316946386bfc81b9c774ae1314856a53fc3ad684048d0e2491cfaa",
    ("astronauts", "kendall", "1/2", "milp"):
        "ab0eacc05b128e5a30fdf6e658e02f15a25868e1cf14a369027b4390454e64f3",
    ("astronauts", "kendall", "1/2", "milp+opt"):
        "cf9299d1ffdf413519b35d7ba5e768f7146b7f1d6e324cef071f67f37b65fd62",
    ("astronauts", "pred", "0", "milp"):
        "fd817b530a40c15bfeb4c420ae7ecf6c37ee9e381ecb9cc300266b7c505ff5c5",
    ("astronauts", "pred", "0", "milp+opt"):
        "860a5aacdd3c4c442f2f2eaf36839d9cfe382dedd307218cee8e86dd1f874380",
    ("astronauts", "pred", "1/2", "milp"):
        "b2c7116715ac7f71be4e79c99e4fd047e54e5c04c36d045a0b7e94a43a095544",
    ("astronauts", "pred", "1/2", "milp+opt"):
        "7f0e4eeefe20d02ce1a0d22533fe5969a8d10fb14906dc249acd264900c9fa39",
    ("no_perfect", "pred", "0", "milp"):
        "195204a4c43f7ac2bac90ca2dece691fcb0bf99bd1340a6ea3f43686f0f02fbe",
    ("no_perfect", "pred", "0", "milp+opt"):
        "6eef424bf0180ce60400c72f59fa6810c3c9f38f94aed5f6674ba6d79afb60e3",
    ("no_perfect", "pred", "1/2", "milp"):
        "6d4d8f4bb88d81591b444be6a1cf027d4c90d57518b49a124d8d39cabf35d3ac",
    ("no_perfect", "pred", "1/2", "milp+opt"):
        "3a67d89b21e36823913ffce6ff4070cce07ee99052633e9edd8afbab84344901",
    ("scholarship", "jaccard", "0", "milp"):
        "3765cd74e1f657ece2f14fb6c4243c10b423f7ccc924d39767bb51c94782b96a",
    ("scholarship", "jaccard", "0", "milp+opt"):
        "175886de7e0e19c543d65b8b42e90a316e4f9119897cddc13fc33d38c8a5f8e1",
    ("scholarship", "jaccard", "1/2", "milp"):
        "f50a38a4b65cac37308da9f0e52a3912bfcd2882073b942a3c98d2a8ca402ed0",
    ("scholarship", "jaccard", "1/2", "milp+opt"):
        "e3f61a5def06b096cff09fd5e7e68c64d24668f56e3aadc4480c50f2d4f53f0b",
    ("scholarship", "kendall", "0", "milp"):
        "276d7aded9ba17e691b2ee425906c4f65decb1ded2028db880d73440e4b41bf6",
    ("scholarship", "kendall", "0", "milp+opt"):
        "875c5756a7a5af5ed3e6961ad1a1a5ebf6cc90e450ba79b319e7581a7638ce25",
    ("scholarship", "kendall", "1/2", "milp"):
        "859e1fbef19f016a8b3174734a54e49bd2f0105fc413e77ce71c5c10d9732b52",
    ("scholarship", "kendall", "1/2", "milp+opt"):
        "2d84140b7c61184d45dfe6ff52d63e7f185bfcfc9f11d16842fcda579a81a5a9",
    ("scholarship", "pred", "0", "milp"):
        "bd51afa5115fa7cb1f2f40353035356a86dfebb31ea66fea32a5e65997239c39",
    ("scholarship", "pred", "0", "milp+opt"):
        "363783ebab9a6dda15b9962b1090d4a218635ef2b80e7ebb6fe0122ceaf33f58",
    ("scholarship", "pred", "1/2", "milp"):
        "24afd6ee04049b0e1374b46bf4974d639d09bda8e46a9d20cf4a40bf69db6442",
    ("scholarship", "pred", "1/2", "milp+opt"):
        "eba33f7d25b71a6b799b60e64c2c7a01232df9aba39a8fec6b1b0f68d040f62c",
}


def _golden_db(scenario):
    db = Database()
    for name, csv in RELATIONS[scenario].items():
        db.add(load_csv(DATA / csv, name=name))
    return db


def _golden_build(scenario, distance, epsilon, engine, db=None, constraints=None):
    db = db or _golden_db(scenario)
    query = parse_query((SCENARIOS / scenario / "query.sql").read_text())
    constraints = constraints or parse_constraints(
        (SCENARIOS / scenario / "constraints.json").read_text())
    return build_model(query, db, constraints, Fraction(epsilon), DistanceKind(distance),
                       BUILD_OPTIONS[engine])


def _digest(model) -> str:
    """What HiGHS holds once ``model`` is loaded, and the row-wise arrays it
    was loaded from: HiGHS stores the matrix by column, so those alone keep
    the order of the entries within a row."""
    lp = solver._highs(model, row_names=True).getLp()
    a = lp.a_matrix_
    # whole Python lists: numpy's repr of an array would round and elide
    fields = [lp.num_col_, lp.num_row_, lp.offset_, int(a.format_),
              [int(t) for t in lp.integrality_], list(lp.col_names_), list(lp.row_names_)]
    fields += [list(map(float, x)) for x in (lp.col_cost_, lp.col_lower_, lp.col_upper_,
                                             lp.row_lower_, lp.row_upper_, a.value_)]
    fields += [list(map(int, x)) for x in (a.start_, a.index_)]
    fields += [model.row_start, model.row_index, list(map(float, model.row_value))]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="/".join)
def test_highs_receives_the_pinned_model(case):
    built = _golden_build(*case)
    assert _digest(built.model) == DIGESTS[case]


def test_warm_builds_load_the_pinned_models():
    db = Database()
    for scenario in RELATIONS:
        for name, csv in RELATIONS[scenario].items():
            db.add(load_csv(DATA / csv, name=name))
    for scenario in sorted({case[0] for case in DIGESTS}):
        # each engine first builds a model for a k* one above the scenario's
        cs = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())
        other_k = ConstraintSet(tuple(replace(c, k=c.k + 1) for c in cs))
        for engine in ("milp", "milp+opt"):
            _golden_build(scenario, "pred", "0", engine, db, other_k)
        instance = db.last_prepared
        assert len(instance.models) == 2
        # consecutive builds change engine, and every other one the distance
        cases = sorted((c for c in DIGESTS if c[0] == scenario),
                       key=lambda c: (c[2], c[1], c[3]))
        for case in cases:
            assert _digest(_golden_build(*case, db).model) == DIGESTS[case], case
        assert db.last_prepared is instance
        # one model kept per distance, epsilon and engine, beside the other k*'s
        assert len(instance.models) == 2 + len(cases)


EPSILON_SEQUENCE = ("0", "1/2", "0", "1/4", "1")


def test_a_hit_is_served_the_kept_result():
    scenario, distance, epsilon0, engine = case = ("astronauts", "pred", "0", "milp+opt")
    db = _golden_db(scenario)
    kept = _golden_build(*case, db)
    models = db.last_prepared.models
    assert len(models) == 1 and next(iter(models.values())) is kept
    # a request at the same epsilon gets that very object, and one at another
    # epsilon a model of its own, entry for entry a cold build's
    for epsilon in EPSILON_SEQUENCE:
        built = _golden_build(scenario, distance, epsilon, engine, db)
        cold = _golden_build(scenario, distance, epsilon, engine)
        assert (built is kept) == (epsilon == epsilon0), epsilon
        assert _digest(built.model) == _digest(cold.model), epsilon
        assert built.model == cold.model and built.stats == cold.stats
        assert built.num_families == cold.num_families
        assert built.cat_families == cold.cat_families
        if (scenario, distance, epsilon, engine) in DIGESTS:
            assert _digest(built.model) == DIGESTS[(scenario, distance, epsilon, engine)]
    assert len(models) == len(set(EPSILON_SEQUENCE))

    # replacing a relation drops the instance and the models kept with it
    instance = db.last_prepared
    assert instance.models
    db.add(load_csv(DATA / "astronauts.csv", name="Astronauts"))
    assert db.last_prepared is None
    assert _digest(_golden_build(*case, db).model) == DIGESTS[case]
    assert db.last_prepared is not instance


def test_a_request_at_another_epsilon_leaves_the_kept_model_alone():
    case = ("scholarship", "pred", "0", "milp+opt")
    db = _golden_db("scholarship")
    kept = _golden_build(*case, db)
    other = _golden_build("scholarship", "pred", "1/2", "milp+opt", db)
    assert other is not kept
    assert _digest(other.model) == DIGESTS[("scholarship", "pred", "1/2", "milp+opt")]
    assert _digest(kept.model) == DIGESTS[case]
    assert _golden_build(*case, db) is kept


@pytest.fixture
def builds(monkeypatch):
    """One entry per model compiled, rather than served from a kept one."""
    calls = []
    real_build = build_module.ModelBuilder.build

    def build(self):
        calls.append(1)
        return real_build(self)

    monkeypatch.setattr(build_module.ModelBuilder, "build", build)
    return calls


def test_adding_a_relation_drops_the_kept_models(builds):
    case = ("scholarship", "kendall", "1/2", "milp+opt")
    db = _golden_db("scholarship")
    for _ in range(2):
        assert _digest(_golden_build(*case, db).model) == DIGESTS[case]
    assert len(builds) == 1 and len(db.last_prepared.models) == 1
    db.add(load_csv(DATA / "activities.csv", name="Activities"))
    assert db.last_prepared is None
    assert _digest(_golden_build(*case, db).model) == DIGESTS[case]
    assert len(builds) == 2 and len(db.last_prepared.models) == 1


def test_the_least_recently_used_model_is_dropped_first(builds):
    db = _golden_db("astronauts")
    cs = parse_constraints((SCENARIOS / "astronauts" / "constraints.json").read_text())
    # one key per lower bound on women in the top 20
    sets = [ConstraintSet((replace(cs.constraints[0], k=20, n=n),))
            for n in range(1, KEPT_MODELS + 2)]
    for c in sets[:KEPT_MODELS]:
        _golden_build("astronauts", "pred", "1/2", "milp+opt", db, c)
    models = db.last_prepared.models
    assert len(builds) == len(models) == KEPT_MODELS
    # a hit makes its key the most recently used
    _golden_build("astronauts", "pred", "1/2", "milp+opt", db, sets[0])
    assert len(builds) == KEPT_MODELS
    _golden_build("astronauts", "pred", "1/2", "milp+opt", db, sets[-1])
    assert len(builds) == len(models) + 1 == KEPT_MODELS + 1
    assert [key[0] for key in models] == sets[2:KEPT_MODELS] + [sets[0], sets[-1]]
    # the dropped key is built again, and drops the next least recently used
    cold = _golden_build("astronauts", "pred", "1/2", "milp+opt", None, sets[1])
    warm = _golden_build("astronauts", "pred", "1/2", "milp+opt", db, sets[1])
    assert len(builds) == KEPT_MODELS + 3
    assert _digest(warm.model) == _digest(cold.model)
    assert [key[0] for key in models] == sets[3:KEPT_MODELS] + [sets[0], sets[-1], sets[1]]


@pytest.mark.parametrize("engine", ["milp", "milp+opt"])
@pytest.mark.parametrize("scenario", sorted(RELATIONS))
def test_warm_models_and_reports_equal_cold_ones(scenario, engine):
    """Every distance in turn runs the epsilon sequence on one database,
    and each model and report equals one from a freshly loaded database."""
    db = _golden_db(scenario)
    query = parse_query((SCENARIOS / scenario / "query.sql").read_text())
    cs = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())

    def outcome(database, distance, epsilon):
        config = RunConfig(query, database, cs, Fraction(epsilon), DistanceKind(distance),
                           engine=engine)
        try:
            report = result_to_dict(run(config), include_timing=False)
            built = _golden_build(scenario, distance, epsilon, engine, database)
        except RankRefineError as exc:
            return type(exc).__name__, str(exc)
        return report, _digest(built.model)

    reports = 0
    for distance in (PRED, JACCARD, KENDALL):
        for epsilon in EPSILON_SEQUENCE:
            warm = outcome(db, distance, epsilon)
            assert warm == outcome(_golden_db(scenario), distance, epsilon), \
                (distance, epsilon)
            if (scenario, distance, epsilon, engine) in DIGESTS:
                assert warm[1] == DIGESTS[(scenario, distance, epsilon, engine)]
            reports += isinstance(warm[0], dict)
    # no_perfect's outcome distances are rejected
    assert reports == (5 if scenario == "no_perfect" else 15)
    # one model kept per distance and distinct epsilon
    assert len(db.last_prepared.models) == reports // 5 * len(set(EPSILON_SEQUENCE))


@pytest.mark.parametrize("engine", ["milp", "milp+opt"])
def test_row_families_partition_the_rows(engine, capsys):
    reported = 0
    for case in sorted(GOLDEN):
        main(_args(*case) + ["--engine", engine])
        out = capsys.readouterr().out
        if not out:  # rejected input: no report
            continue
        stats = json.loads(out)["model_stats"]
        assert set(stats["rows_by_family"]) == set(ROW_FAMILIES)
        assert sum(stats["rows_by_family"].values()) == stats["rows"], case
        reported += 1
    assert reported == 14


def test_perfbench_counts_the_reported_nnz():
    sys.path.insert(0, str(PERFBENCH))
    import run

    target = next(t for t in run.trace_targets(rankrefine) if t.name == "milp.build")
    for case in [("astronauts", "kendall", "0", "milp"),
                 ("scholarship", "jaccard", "1/2", "milp+opt")]:
        built = _golden_build(*case)
        assert built.stats["nnz"] > 0
        assert target.counts(built)["milp.build.nnz"] == built.stats["nnz"]
