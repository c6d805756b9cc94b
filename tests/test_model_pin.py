"""The model HiGHS receives, pinned, and the size figures reported for it.

The digests were recorded before the builder moved from name-keyed row
dicts to column-indexed arrays, from each golden scenario's model as HiGHS
received it: column bounds, costs, integrality and names, the objective
offset, row bounds and names, and the matrix.  Any change to the encoding,
its column, row or entry order, or its names changes them.  The
``astronauts`` and ``scholarship`` ``milp+opt`` digests were recorded again
when relevancy pruning moved from lineage classes to dominance, which
encodes fewer tuples there.

The database keeps built models with the prepared instance, and a request
that repeats one's constraints, distance and options is served the kept
result itself, with only its deviation row rewritten in place for the
request's epsilon.  So each pinned model is also built warm, on one
database shared with builds at another k*, under the other engine and for
the other distances, and each kept model is checked against a cold build
along an epsilon sequence, together with the report it leads to.
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
from rankrefine.engine import RunConfig, result_to_dict, run
from rankrefine.errors import RankRefineError
from rankrefine.milp import solver
from rankrefine.milp import build as build_module
from rankrefine.milp.build import KEPT_MODELS, ROW_FAMILIES, BuildOptions, build_model
from rankrefine.query import parse_query

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (scenario, distance, epsilon, engine) -> sha256 of the loaded model; the
# golden cases missing here are rejected before a model is built
DIGESTS = {
    ("astronauts", "jaccard", "0", "milp"):
        "cd8ad05eb48892194e7103ae7f515004363e09a7350f473ced79b593f2b7c9bc",
    ("astronauts", "jaccard", "0", "milp+opt"):
        "fca0162f8a2a1d45c3d203ccdc5d175590c3f86975da3f1ad71611c064fcb76f",
    ("astronauts", "jaccard", "1/2", "milp"):
        "44ca38655b276a59a37181e7cf087c6a3798a8929945fcc96b114976ed9b363d",
    ("astronauts", "jaccard", "1/2", "milp+opt"):
        "3a8e21d9589b5e32ec4185ce9289fb89327c5448fd5891160477f2149aed397b",
    ("astronauts", "kendall", "0", "milp"):
        "0b9d00450d99a073e5646f3dba01196b3ae9914ef42dba61854023ce43c4393a",
    ("astronauts", "kendall", "0", "milp+opt"):
        "80c22b3538ec45d5c80ef3c512fde516cbc58eddc5dff207796ded0110d8b34e",
    ("astronauts", "kendall", "1/2", "milp"):
        "b41f0d35168d06f9529c9f15b3b7165ec80e7ba109fb5f7c41a766882855e117",
    ("astronauts", "kendall", "1/2", "milp+opt"):
        "787c68b9a1085595bceb033e426708ff05664500d419fc7bc4e9ee41743a34ab",
    ("astronauts", "pred", "0", "milp"):
        "5b61782e0934d6b5a148f0b73cacdea7b5f9425d2668f8a61ee794e15349eadc",
    ("astronauts", "pred", "0", "milp+opt"):
        "684342065879544139f1a90ae72082b6e61ab8b66e4313a573c28b438549a0d9",
    ("astronauts", "pred", "1/2", "milp"):
        "ffde9477a9d70b52021753b894c3848fbfdcaa2e49d22b93cd4439e892f389ff",
    ("astronauts", "pred", "1/2", "milp+opt"):
        "d3527e98af97afd06ffef6ded8195ee4e2ae512e45b859f28635802df0742cf1",
    ("no_perfect", "pred", "0", "milp"):
        "3ff75d7fdf610606c68919a7ee8d968c8c16fa07ec294b8df6d8c0068ae02b2b",
    ("no_perfect", "pred", "0", "milp+opt"):
        "e1880a256b632502d307c673e936298ed28e247293e13d1dddac0e225006d9b8",
    ("no_perfect", "pred", "1/2", "milp"):
        "170859cedf2592f654d12cffb2de64fc8827fc31d7e8008147f92fe6eeec443c",
    ("no_perfect", "pred", "1/2", "milp+opt"):
        "db6eec24fdc546553d9c023396c2ab2e1fbe1bbc0b7e8356564062b430c087ac",
    ("scholarship", "jaccard", "0", "milp"):
        "dc148692d15e18c40b51afe1771ba97f2e14e4dbce798178ce45036b4e519b40",
    ("scholarship", "jaccard", "0", "milp+opt"):
        "6f118f42758ae4e37e345a9b362fd733d21f6a1b74df2f6d520cb217f42aac8b",
    ("scholarship", "jaccard", "1/2", "milp"):
        "a26d190046c7b90afbda4d1dd96d309e389bd9c1486636536ac58cbf96e6c5b0",
    ("scholarship", "jaccard", "1/2", "milp+opt"):
        "dde79f535c63f688a4d26da4e995109afc47cbe8bfe8763fc8ce6e750ccec338",
    ("scholarship", "kendall", "0", "milp"):
        "365a8ec32a97c70ee1fc6f41af578baaf229fc0f5f925a6a5185d08affbd36b4",
    ("scholarship", "kendall", "0", "milp+opt"):
        "f2f4fe965d81e7126b4de3d47bd4a2ea9e5e10245eb9691c7c4ff1a60c97de6f",
    ("scholarship", "kendall", "1/2", "milp"):
        "04f306ce899c71bfadb23a1d9cb8bc63a7fbbad0194030c14c5246bc40b671be",
    ("scholarship", "kendall", "1/2", "milp+opt"):
        "aa7ede593dec6f679a596b09f9f51d78b4bfd4c71dddb9bbf5676813130e4e98",
    ("scholarship", "pred", "0", "milp"):
        "335128f18ae31dc1746b3a3c8b3a0507284714b041157f37670720853a0e7c91",
    ("scholarship", "pred", "0", "milp+opt"):
        "d120be428b0904f17ae0d50d06da309c463c3191873c0cb65e8611ff12d10057",
    ("scholarship", "pred", "1/2", "milp"):
        "636c6825cd3701909eadcd68574194bface62059195e4938fd4201d6874c821e",
    ("scholarship", "pred", "1/2", "milp+opt"):
        "6f217105fd0a3630203eac7c978de46163aec31906f1d27fce1c7f542aa01b4f",
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
    opt = engine == "milp+opt"
    return build_model(query, db, constraints, Fraction(epsilon), DistanceKind(distance),
                       BuildOptions(opt, opt, opt))


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
        prep = db.last_prepared
        assert len(prep.models) == 2
        # consecutive builds change engine, and every other one the distance
        cases = sorted((c for c in DIGESTS if c[0] == scenario),
                       key=lambda c: (c[2], c[1], c[3]))
        for case in cases:
            assert _digest(_golden_build(*case, db).model) == DIGESTS[case], case
        assert db.last_prepared is prep
        # one model kept per distance and engine, beside the other k*'s
        assert len(prep.models) == 2 + len({(c[1], c[3]) for c in cases})


EPSILON_SEQUENCE = ("0", "1/2", "0", "1/4", "1")


def test_a_hit_is_served_the_kept_result():
    scenario, distance, _, engine = case = ("astronauts", "pred", "0", "milp+opt")
    db = _golden_db(scenario)
    kept = _golden_build(*case, db)
    models = db.last_prepared.models
    assert len(models) == 1 and next(iter(models.values())) is kept
    # every later request gets that very object, its deviation row rewritten
    # in place: entry for entry a cold build at the request's epsilon
    for epsilon in EPSILON_SEQUENCE:
        built = _golden_build(scenario, distance, epsilon, engine, db)
        cold = _golden_build(scenario, distance, epsilon, engine)
        assert built is kept and len(models) == 1
        assert _digest(built.model) == _digest(cold.model), epsilon
        assert built.model == cold.model and built.stats == cold.stats
        assert built.num_families == cold.num_families
        assert built.cat_families == cold.cat_families
        if (scenario, distance, epsilon, engine) in DIGESTS:
            assert _digest(built.model) == DIGESTS[(scenario, distance, epsilon, engine)]

    # replacing a relation drops the instance and the model kept with it
    prep = db.last_prepared
    assert prep.models
    db.add(load_csv(DATA / "astronauts.csv", name="Astronauts"))
    assert db.last_prepared is None
    assert _digest(_golden_build(*case, db).model) == DIGESTS[case]
    assert db.last_prepared is not prep


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
    _golden_build("astronauts", "pred", "0", "milp+opt", db, sets[0])
    assert len(builds) == KEPT_MODELS
    _golden_build("astronauts", "pred", "0", "milp+opt", db, sets[-1])
    assert len(builds) == len(models) + 1 == KEPT_MODELS + 1
    assert [key[0] for key in models] == sets[2:KEPT_MODELS] + [sets[0], sets[-1]]
    # the dropped key is built again, and drops the next least recently used
    cold = _golden_build("astronauts", "pred", "1/4", "milp+opt", None, sets[1])
    warm = _golden_build("astronauts", "pred", "1/4", "milp+opt", db, sets[1])
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
    assert len(db.last_prepared.models) == reports // 5


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
