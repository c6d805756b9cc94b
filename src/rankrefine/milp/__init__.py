from .build import (
    BuildOptions,
    BuildResult,
    ModelBuilder,
    build_model,
    extract_refinement,
)
from .model import (
    BINARY,
    CONTINUOUS,
    MILPModel,
    Row,
    Solution,
    Variable,
    to_lp_text,
)
from .solver import SolveOptions, solve

__all__ = [
    "BINARY",
    "BuildOptions",
    "BuildResult",
    "ModelBuilder",
    "build_model",
    "extract_refinement",
    "CONTINUOUS",
    "MILPModel",
    "Row",
    "Solution",
    "SolveOptions",
    "Variable",
    "solve",
    "to_lp_text",
]
