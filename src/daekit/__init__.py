"""Index analysis and solvers for differential- and integral-algebraic equations."""

from .errors import (
    ClassificationUnreliableError,
    DaekitError,
    DomainError,
    EvaluationError,
    ExtrapolationError,
    InconsistentChainError,
    InvalidInputError,
    ProblemFileError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    MatrixFunction,
    SemiInverseResult,
    fd_derivative,
    matfn_derivative,
    numerical_rank,
    semi_inverse,
)
from .problems import (
    LinearDAE,
    LinearIAE,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    TrajectorySample,
    fd_jacobian,
    verify_exact,
)
from .examples import available, example
from .chain import (
    ChainLevel,
    ChainStatus,
    ConsistencyReport,
    HessenbergResult,
    IndexReport,
    chain_step,
    consistency_check,
    dae_to_iae,
    hessenberg_index,
    rank_degree_index,
    rhs_chain,
)
from .structure import (
    IndexProfile,
    classify,
    detect_critical_points,
    frozen_index_report,
    linearize_iae,
    pointwise_index,
)
from .bdf import DaeSolveConfig, MonitorWarning, SolveResult, dae_residual, solve_dae
from .collocation import (
    CollocationConfig,
    PiecewiseSolution,
    residual,
    solve_iae,
)
from .expr import compile_expression
from .probfile import load_problem
from .export import solution_table, write_json, write_solution_csv

__version__ = "0.1.0"

__all__ = [
    "ClassificationUnreliableError",
    "DaekitError",
    "DomainError",
    "EvaluationError",
    "ExtrapolationError",
    "InconsistentChainError",
    "InvalidInputError",
    "ProblemFileError",
    "DEFAULT_RANK_TOL",
    "MatrixFunction",
    "SemiInverseResult",
    "fd_derivative",
    "matfn_derivative",
    "numerical_rank",
    "semi_inverse",
    "LinearDAE",
    "LinearIAE",
    "SemiNonlinearDAE",
    "SemiNonlinearIAE",
    "TrajectorySample",
    "fd_jacobian",
    "verify_exact",
    "available",
    "example",
    "ChainLevel",
    "ChainStatus",
    "ConsistencyReport",
    "HessenbergResult",
    "IndexReport",
    "chain_step",
    "consistency_check",
    "dae_to_iae",
    "hessenberg_index",
    "rank_degree_index",
    "rhs_chain",
    "IndexProfile",
    "classify",
    "detect_critical_points",
    "frozen_index_report",
    "linearize_iae",
    "pointwise_index",
    "DaeSolveConfig",
    "MonitorWarning",
    "SolveResult",
    "dae_residual",
    "solve_dae",
    "CollocationConfig",
    "PiecewiseSolution",
    "residual",
    "solve_iae",
    "compile_expression",
    "load_problem",
    "solution_table",
    "write_json",
    "write_solution_csv",
    "__version__",
]
