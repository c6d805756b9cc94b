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
)
from .solver import SolveOptions, solve, write_lp
