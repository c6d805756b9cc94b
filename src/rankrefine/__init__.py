"""rankrefine: minimally refine an SPJ query's predicates so its top-k
ranking meets cardinality (diversity) constraints."""

from .annotate import AnnotatedTuple, Instance, annotate, evaluate, filter_annotated
from .constraints import (
    LOWER,
    UPPER,
    CardinalityConstraint,
    ConstraintSet,
    deviation,
    parse_constraints,
)
from .data import Database, Relation, Schema, load_csv, natural_join
from .distances import (
    JACCARD,
    KENDALL,
    PRED,
    DistanceKind,
    dis_jaccard,
    dis_kendall,
    dis_pred,
)
from .engine import RefineResult, RunConfig, TopkRow, result_to_dict, run
from .errors import RankRefineError
from .oracle import OracleResult, exhaustive_solve, refinement_space
from .query import (
    CatPredicate,
    NumPredicate,
    Query,
    Refinement,
    apply_refinement,
    parse_query,
    render_sql,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedTuple",
    "Instance",
    "CardinalityConstraint",
    "CatPredicate",
    "ConstraintSet",
    "Database",
    "DistanceKind",
    "JACCARD",
    "KENDALL",
    "LOWER",
    "NumPredicate",
    "OracleResult",
    "PRED",
    "Query",
    "RankRefineError",
    "Refinement",
    "RefineResult",
    "Relation",
    "RunConfig",
    "Schema",
    "TopkRow",
    "UPPER",
    "annotate",
    "apply_refinement",
    "deviation",
    "dis_jaccard",
    "dis_kendall",
    "dis_pred",
    "evaluate",
    "exhaustive_solve",
    "filter_annotated",
    "load_csv",
    "natural_join",
    "parse_constraints",
    "parse_query",
    "refinement_space",
    "render_sql",
    "result_to_dict",
    "run",
]
