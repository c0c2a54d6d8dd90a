"""P1 finite elements and regularity diagnostics for the regularized
Dirichlet p(x)-Laplacian on convex plane domains.

The package solves -div((eps + |grad u|^2)^((p(x)-2)/2) grad u) = f with
Dirichlet data by damped Newton continuation in eps, and ships the
measurement tools used to study the solutions: variable-exponent Luxemburg
norms, non-divergence coefficient sampling with ellipticity checks, two
independent discrete H2 estimates, corner-rounding domain sweeps, and a
boundary curvature identity on the disk.
"""

__version__ = "0.1.0"

from .expressions import (DifferentiationError, FieldEvaluationError,
                          FieldSyntaxError, ScalarFieldExpr, parse_field)
from .geometry import (ConvexDomain, GeometryError, ParameterError, TriMesh,
                       load_mesh, refine_uniform, round_corners, save_mesh,
                       triangulate_convex)
from .varexp import (EvaluationError, ExponentField, NonconvergenceError,
                     PreconditionError, QuadratureContext, field_values,
                     holder_check, luxemburg_norm, modular, mollify_exponent)
from .assembly import (P1Function, apply_dirichlet, assemble_jacobian,
                       assemble_load, assemble_residual, energy,
                       weighted_stiffness)
from .solver import (EpsRecord, HypothesisError, LinearSolveError,
                     NewtonError, ProblemSpec, SolveReport,
                     continuation_solve, linear_solve, masked_source,
                     solve_regularized, validate_spec,
                     with_mollified_exponent)
from . import regularity
from . import experiments

__all__ = [
    "__version__",
    # expressions
    "parse_field", "ScalarFieldExpr", "FieldSyntaxError",
    "FieldEvaluationError", "DifferentiationError",
    # geometry
    "ConvexDomain", "TriMesh", "triangulate_convex", "refine_uniform",
    "round_corners", "save_mesh", "load_mesh",
    "GeometryError", "ParameterError",
    # variable-exponent spaces
    "ExponentField", "QuadratureContext", "field_values", "modular",
    "luxemburg_norm", "holder_check", "mollify_exponent", "EvaluationError",
    "PreconditionError", "NonconvergenceError",
    # assembly
    "P1Function", "energy", "assemble_load",
    "assemble_residual", "assemble_jacobian", "weighted_stiffness",
    "apply_dirichlet",
    # solver
    "ProblemSpec", "SolveReport", "EpsRecord", "solve_regularized",
    "continuation_solve", "linear_solve", "validate_spec", "masked_source",
    "with_mollified_exponent", "LinearSolveError", "NewtonError",
    "HypothesisError",
    # submodules
    "regularity", "experiments",
]
