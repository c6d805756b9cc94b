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
)
from .solver import SolveOptions, solve, write_lp

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
    "write_lp",
]
