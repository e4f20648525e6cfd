"""Indefinite least squares solvers built around a three-by-three block
reformulation, flexible GMRES, and inexact block-splitting preconditioners."""

from .analysis import (
    ConditionReport,
    GmresBoundResult,
    SpectralReport,
    check_convergence_conditions,
    gmres_bound_check,
    jacobi_eigh,
    spectral_radius_estimate,
    stationary_solve,
    verify_eigenstructure,
)
from .bench import (
    ExperimentSpec,
    TableRow,
    generate_augmented_problem,
    generate_hilbert_problem,
    generate_random_problem,
    hilbert_matrix,
    load_experiment_spec,
    report_write,
    run_experiment,
)
from .dense import cholesky_solve, dense_cholesky
from .exceptions import (
    ConfigurationError,
    DegenerateMatrixError,
    DegenerateProblemError,
    IlsolveError,
    IndefiniteOperatorError,
    NotSpdError,
    NumericalFailureError,
    ParseError,
    ProblemAssumptionError,
    StationaryDivergenceError,
)
from .krylov import CgConfig, FgmresConfig, SolveReport, cg_solve, fgmres_solve
from .mmio import parse_matrix_market, read_matrix_market, write_matrix_market
from .operators import LinearOperator, aslinearoperator
from .preconditioners import (
    BASELINE_VARIANTS,
    IBS_VARIANTS,
    VARIANTS,
    Preconditioner,
    assemble_dense_preconditioned,
    make_preconditioner,
)
from .problem import (
    IlsProblem,
    apply_block_A,
    block_system_operator,
    build_rhs,
    compute_alpha,
    partition_problem,
    reference_solution,
)
from .sparse import (
    SparseMatrixCsr,
    normalize_to_unit_one_norm,
    one_norm,
    rectangular_identity_csr,
    spmv,
    spmv_transpose,
)

__version__ = "0.1.0"
