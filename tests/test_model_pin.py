"""The model HiGHS receives, pinned, and the size figures reported for it.

The digests were recorded before the builder moved from name-keyed row
dicts to column-indexed arrays, from each golden scenario's model as HiGHS
received it: column bounds, costs, integrality and names, the objective
offset, row bounds and names, and the matrix.  Any change to the encoding,
its column, row or entry order, or its names changes them.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_golden import DATA, GOLDEN, RELATIONS, SCENARIOS, _args

import rankrefine
from rankrefine.cli import main
from rankrefine.constraints import parse_constraints
from rankrefine.data import Database, load_csv
from rankrefine.distances import DistanceKind
from rankrefine.milp import solver
from rankrefine.milp.build import ROW_FAMILIES, BuildOptions, build_model
from rankrefine.query import parse_query

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (scenario, distance, epsilon, engine) -> sha256 of the loaded model; the
# golden cases missing here are rejected before a model is built
DIGESTS = {
    ("astronauts", "jaccard", "0", "milp"):
        "cd8ad05eb48892194e7103ae7f515004363e09a7350f473ced79b593f2b7c9bc",
    ("astronauts", "jaccard", "0", "milp+opt"):
        "6a6747aca7ffdb6fed0295e68f45e60dd4c8b9dc3eb367dd03d7de0bf9ae6468",
    ("astronauts", "jaccard", "1/2", "milp"):
        "44ca38655b276a59a37181e7cf087c6a3798a8929945fcc96b114976ed9b363d",
    ("astronauts", "jaccard", "1/2", "milp+opt"):
        "7e08e82c25f1f84e7b0c93cde95d4b639daba73023918edd96b0e5de90b8b895",
    ("astronauts", "kendall", "0", "milp"):
        "0b9d00450d99a073e5646f3dba01196b3ae9914ef42dba61854023ce43c4393a",
    ("astronauts", "kendall", "0", "milp+opt"):
        "3122511b762f9cf903bbe5d3de48d0969aacc337c64bffbbab06bb40e7ecce34",
    ("astronauts", "kendall", "1/2", "milp"):
        "b41f0d35168d06f9529c9f15b3b7165ec80e7ba109fb5f7c41a766882855e117",
    ("astronauts", "kendall", "1/2", "milp+opt"):
        "6c47a7bbf59c231eb767d9d385d0e54f12799c4eb16443b8734269860591c6b5",
    ("astronauts", "pred", "0", "milp"):
        "5b61782e0934d6b5a148f0b73cacdea7b5f9425d2668f8a61ee794e15349eadc",
    ("astronauts", "pred", "0", "milp+opt"):
        "8cb55984a809d47db1b45d723cb48fc1f2ca3845f18348500c00374586a1ed4a",
    ("astronauts", "pred", "1/2", "milp"):
        "ffde9477a9d70b52021753b894c3848fbfdcaa2e49d22b93cd4439e892f389ff",
    ("astronauts", "pred", "1/2", "milp+opt"):
        "fa9de2cdfa45852db139e04fc9c34e656e1b08cf809414b9a742631501870588",
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
        "dc148692d15e18c40b51afe1771ba97f2e14e4dbce798178ce45036b4e519b40",
    ("scholarship", "jaccard", "1/2", "milp"):
        "a26d190046c7b90afbda4d1dd96d309e389bd9c1486636536ac58cbf96e6c5b0",
    ("scholarship", "jaccard", "1/2", "milp+opt"):
        "a26d190046c7b90afbda4d1dd96d309e389bd9c1486636536ac58cbf96e6c5b0",
    ("scholarship", "kendall", "0", "milp"):
        "365a8ec32a97c70ee1fc6f41af578baaf229fc0f5f925a6a5185d08affbd36b4",
    ("scholarship", "kendall", "0", "milp+opt"):
        "365a8ec32a97c70ee1fc6f41af578baaf229fc0f5f925a6a5185d08affbd36b4",
    ("scholarship", "kendall", "1/2", "milp"):
        "04f306ce899c71bfadb23a1d9cb8bc63a7fbbad0194030c14c5246bc40b671be",
    ("scholarship", "kendall", "1/2", "milp+opt"):
        "04f306ce899c71bfadb23a1d9cb8bc63a7fbbad0194030c14c5246bc40b671be",
    ("scholarship", "pred", "0", "milp"):
        "335128f18ae31dc1746b3a3c8b3a0507284714b041157f37670720853a0e7c91",
    ("scholarship", "pred", "0", "milp+opt"):
        "335128f18ae31dc1746b3a3c8b3a0507284714b041157f37670720853a0e7c91",
    ("scholarship", "pred", "1/2", "milp"):
        "636c6825cd3701909eadcd68574194bface62059195e4938fd4201d6874c821e",
    ("scholarship", "pred", "1/2", "milp+opt"):
        "636c6825cd3701909eadcd68574194bface62059195e4938fd4201d6874c821e",
}


def _golden_build(scenario, distance, epsilon, engine):
    db = Database()
    for name, csv in RELATIONS[scenario].items():
        db.add(load_csv(DATA / csv, name=name))
    query = parse_query((SCENARIOS / scenario / "query.sql").read_text())
    constraints = parse_constraints((SCENARIOS / scenario / "constraints.json").read_text())
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
