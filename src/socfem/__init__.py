"""Stochastic parabolic optimal control with an integral state constraint.

P1 finite elements and implicit Euler discretize the controlled stochastic
heat equation; a gradient projection loop enforces the space-time integral
constraint on the expected state through a scalar multiplier.  See the
README for the CLI and the experiment harness.

Importing socfem sets the OpenBLAS pools bundled with numpy and scipy to
one thread, process-wide, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
is set; ``socfem._blas`` says how, and what the pin was measured to save.
"""

from . import _blas

_blas.pin_threads()

from .errors import NumericalError
from .grid import Mesh, TimeGrid, make_interval_mesh, make_rectangle_mesh, make_time_grid
from .fem import FemSystem, assemble, l2_project, load_vector
from .paths import BrownianEnsemble, sample
from .spde import (
    AffineInW,
    ProblemSpec,
    ZEstimate,
    forward_mean,
    lsmc_z_estimate,
    mtilde_solve,
    qtilde_solve,
)
from .optimizer import (
    GpResult,
    GradientProjection,
    IterationRecord,
    OptimizerConfig,
    constraint_integral,
    contraction_certificate,
    select_multiplier,
)
from .problems import ManufacturedProblem, example1, example2, verify_manufactured
from .analysis import (
    ErrorReport,
    OrderFit,
    Resolution,
    TableCell,
    compute_errors,
    constraint_table,
    convergence_study,
    discrete_constraint_level,
    fit_order,
    orders_from_reports,
)

__all__ = [
    "AffineInW",
    "BrownianEnsemble",
    "ErrorReport",
    "FemSystem",
    "GpResult",
    "GradientProjection",
    "IterationRecord",
    "ManufacturedProblem",
    "Mesh",
    "NumericalError",
    "OptimizerConfig",
    "OrderFit",
    "ProblemSpec",
    "Resolution",
    "TableCell",
    "TimeGrid",
    "ZEstimate",
    "assemble",
    "compute_errors",
    "constraint_integral",
    "constraint_table",
    "contraction_certificate",
    "convergence_study",
    "discrete_constraint_level",
    "example1",
    "example2",
    "fit_order",
    "forward_mean",
    "l2_project",
    "load_vector",
    "lsmc_z_estimate",
    "make_interval_mesh",
    "make_rectangle_mesh",
    "make_time_grid",
    "mtilde_solve",
    "orders_from_reports",
    "qtilde_solve",
    "sample",
    "select_multiplier",
    "verify_manufactured",
]
