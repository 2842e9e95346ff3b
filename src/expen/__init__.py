"""Exact smooth penalty models and solvers for optimization with orthogonality constraints.

The package turns minimization of a smooth f over column-orthonormal matrices
into unconstrained minimization of a penalty h that agrees with f on the
manifold, then solves it with standard first-order methods and verifies the
construction numerically.
"""

from .exceptions import (
    CapabilityError,
    DegenerateProjectionError,
    DimensionError,
    ExPenError,
    FeasibilityError,
    LineSearchError,
    NonDescentError,
    NotPositiveDefiniteError,
    NotStationaryError,
    NumericalError,
)
from .linalg import TridiagMatrix, fnorm, inner, laplacian_1d, sym, tridiag_solve
from .model import Evaluation, ExPenModel, SmoothObjective, apen_map, default_beta, jx_apply, smoothed_grad
from .geometry import (
    StationarityReport,
    feasibility,
    postprocess,
    project_stiefel,
    riemannian_grad,
    stationarity_report,
    tangent_project,
)
from .problems import (
    RandomSpec,
    brockett_make,
    constant_make,
    linear_make,
    nleig_make,
    random_stiefel,
    random_symmetric,
)
from .solvers import (
    IterTrace,
    SolverConfig,
    SolverReport,
    Termination,
    frcg_solve,
    gd_solve,
    strong_wolfe,
)
from .verify import (
    CheckReport,
    assemble_hessian,
    fd_gradient_check,
    fd_hessvec_check,
    inner_identity_check,
    selfadjoint_check,
    spectrum_correspondence,
    strict_saddle_check,
    tangent_basis,
)
from .cli import BenchResult, RunSpec, TableRow, emit_outputs, main, run_benchmark

__version__ = "0.1.0"
