"""Error norms against exact solutions, order fits and constraint tables.

Every reported L2 and H1 error comes from one evaluator, ``_FieldErrors``,
which measures the columns of an (n, k) block at once.  L2 errors are
taken against the nodal interpolant of the exact field, H1 errors by
element quadrature against the exact field itself, whose gradients are
central differences at the quadrature points.  Measuring H1 against the
exact field matters here: on uniform meshes the gradient error against
the interpolant superconverges and would hide the true rate.

The columns are the paths of a block for the states and the time levels
for the deterministic fields.  Strong state errors evaluate the exact
field x0 + W x1 at each path's own discrete Brownian values, so the
measured error is scheme error, not Brownian-path error: the (2, m)
tables [x0; x1] of the field and its gradients are built once per level
and taken to every path by ``spde.at_w``.  Each path block owns one
evaluator, fed each (n, paths) level that ``spde.iter_forward_paths``
yields, so no path history is kept and no level allocates a block-sized
array.  The mean adjoint is one evaluator call; the control,
measured in L2 alone, one ``l2`` call, so its exact gradients are never
evaluated.

Order fits are least-squares slopes of log(error) against log(scale) and
report r^2 so flat or noisy fits are detectable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError
from .fem import FemSystem, assemble
from .grid import TimeGrid, make_interval_mesh, make_rectangle_mesh, make_time_grid
from .optimizer import GpResult, GradientProjection, OptimizerConfig, constraint_integral
from .paths import BLOCK, DEFAULT_PATHS, DEFAULT_SEED, BrownianEnsemble, sample
from .problems import ManufacturedProblem
from .spde import SweepData, SpaceTimeFn, at_w, forward_mean, iter_forward_paths


_FD_STEP = 1e-4  # central-difference step of the exact gradients in H1 errors
# the choices of ``estimator`` and of ``convergence_study``'s ``delta_mode``;
# the first of each is its default
ESTIMATORS = ("mean-field", "monte-carlo")
DELTA_MODES = ("discrete", "problem")


@dataclass(frozen=True)
class Resolution:
    """Cells per space axis and time-step count for one run."""

    cells: int
    steps: int


@dataclass(frozen=True)
class ErrorReport:
    """Discretization errors of one resolved run.

    ``strong_l2_state`` is the root of the maximum over levels 0..N of the
    path mean of the squared L2 state error.  ``strong_l2_adjoint`` and
    ``strong_l2_control`` are the same maximum for deterministic fields,
    the mean adjoint (levels 0..N) and the control (levels 0..N-1), so no
    path mean enters them; the pathwise adjoint error is not measured.
    The ``h1_*`` fields are tau-sums over steps, the roots of tau times the
    sum of the squared H1 seminorm errors: of the path-mean state at levels
    1..N and of the mean adjoint at levels 0..N-1.  ``mu_error`` is
    |mu - exact mu|.  ``converged`` and ``step_error`` (of the last
    iteration) describe the gradient-projection run that was measured.
    """

    h: float
    tau: float
    paths: int
    seed: int
    strong_l2_state: float
    strong_l2_adjoint: float
    strong_l2_control: float
    h1_state: float
    h1_adjoint: float
    mu_error: float
    converged: bool
    step_error: float


@dataclass(frozen=True)
class OrderFit:
    slope: float
    r_squared: float


def mesh_for(problem: ManufacturedProblem, cells: int):
    if problem.dim == 1:
        (a, b), = problem.domain
        return make_interval_mesh(a, b, cells)
    (ax, bx), (ay, by) = problem.domain
    return make_rectangle_mesh((ax, ay), (bx, by), cells, cells)


def setup(problem: ManufacturedProblem, res: Resolution):
    """Assembled system and time grid for one resolution."""
    system = assemble(mesh_for(problem, res.cells))
    grid = make_time_grid(problem.spec.T, res.steps)
    return system, grid


def _fd_gradient(system: FemSystem, exact_eval, axis: int) -> np.ndarray:
    """Central-difference derivative of ``exact_eval`` along ``axis`` at the
    quadrature points, shaped as exact_eval's values there."""
    qp, step = system.quad_points, _FD_STEP * np.eye(system.mesh.dim)[axis]
    return (
        np.asarray(exact_eval(qp + step), dtype=float)
        - np.asarray(exact_eval(qp - step), dtype=float)
    ) / (2.0 * _FD_STEP)


class _FieldErrors:
    """Squared L2 and H1 errors of k P1 fields, one per column of an (n, k) x.

    The caller fills ``exact`` (n, k) with the exact values at the
    interior nodes, column by column.  A call ``errors(x, gradient)``
    measures x against them: the L2 error against the nodal interpolant,
    e' M e with e = x - exact, and the H1 seminorm error against the
    exact gradients by element quadrature, one axis at a time:
    ``gradient(d, out)`` writes the exact gradient along axis d at the
    quadrature points into out (n_quad, k) (from ``_fd_gradient``), and the
    call consumes it before it asks for the next axis, so one buffer
    serves every axis.  ``l2(x)`` measures the L2 error alone and never
    asks for a gradient.  The object owns every buffer (the exact values,
    M e, the gradient and G x); a call overwrites the exact values and the
    gradient with the errors, so it allocates nothing of size n*k.  The
    sums run through ``np.einsum``, not BLAS, so they do not depend on the
    BLAS thread count.
    """

    def __init__(self, system: FemSystem, k: int):
        self._system = system
        n_quad = system.quad_points.shape[0]
        n_elements = system.mesh.elements.shape[0]
        self.exact, self._mass_error = np.empty((2, system.n, k))
        self._gap = np.empty((n_quad, k))
        self._gap_by_element = self._gap.reshape(n_elements, -1, k)
        self._grad = np.empty((n_elements, k))

    def l2(self, x: np.ndarray) -> np.ndarray:
        """The squared L2 errors of the columns of x, (k,)."""
        e = np.subtract(x, self.exact, out=self.exact)
        self._mass_error.fill(0.0)
        return np.einsum("nk,nk->k", e, self._system.mass_product(e, self._mass_error))

    def __call__(
        self, x: np.ndarray, gradient: Callable[[int, np.ndarray], None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The squared L2 and H1 errors of the columns of x, two (k,) arrays."""
        system, grad_x, gap, by_element = self._system, self._grad, self._gap, self._gap_by_element
        h1 = np.zeros(x.shape[1])
        for axis, grad in enumerate(system.grad_products):
            gradient(axis, gap)
            grad_x.fill(0.0)
            np.subtract(by_element, grad(x, grad_x)[:, None, :], out=by_element)
            h1 += np.einsum("q,qk->k", system.quad_weights, np.square(gap, out=gap))
        return self.l2(x), h1


def compute_errors(
    problem: ManufacturedProblem,
    result: GpResult,
    ensemble: BrownianEnsemble,
    system: FemSystem,
    grid: TimeGrid,
) -> ErrorReport:
    """Errors of a gradient-projection result against the problem's exact fields.

    The per-path states are re-simulated from the result's control in
    blocks while errors accumulate; ``converged`` and ``step_error`` are
    the result's own.
    """
    N = grid.N
    ctrl_sq = _level_fields(system, problem.exact_u, grid.times[:N]).l2(result.control[:N].T)
    adj_sq, adj_h1 = _level_errors(system, problem.exact_y, result.adjoint_mean, grid.times)
    state_sq, state_h1 = _state_errors(problem, system, grid, result.control, ensemble)
    return ErrorReport(
        h=system.mesh.h,
        tau=grid.tau,
        paths=ensemble.paths,
        seed=ensemble.seed,
        strong_l2_state=float(np.sqrt(np.max(state_sq))),
        strong_l2_adjoint=float(np.sqrt(np.max(adj_sq))),
        strong_l2_control=float(np.sqrt(np.max(ctrl_sq))),
        h1_state=float(np.sqrt(grid.tau * state_h1[1:].sum())),
        h1_adjoint=float(np.sqrt(grid.tau * adj_h1[:N].sum())),
        mu_error=abs(result.mu - problem.exact_mu),
        converged=result.converged,
        step_error=result.records[-1].step_error,
    )


def _level_values(fn: SpaceTimeFn, times: np.ndarray, points: np.ndarray) -> np.ndarray:
    """fn(t, points) for each t of ``times``, one row each, shape (len(times), m).

    fn is called once per level, with a float t; a scalar fills its row.
    """
    values = np.empty((len(times), points.shape[0]))
    for row, t in zip(values, times):
        row[...] = fn(float(t), points)
    return values


def _level_fields(system: FemSystem, exact: SpaceTimeFn, times: np.ndarray) -> _FieldErrors:
    """A ``_FieldErrors`` whose columns are the levels at ``times``, filled
    with exact(t) at the interior nodes, ready for ``l2``."""
    errors = _FieldErrors(system, len(times))
    errors.exact[...] = _level_values(exact, times, system.mesh.interior_nodes).T
    return errors


def _level_errors(system: FemSystem, exact: SpaceTimeFn, levels: np.ndarray, times: np.ndarray):
    """Squared L2 and H1 errors of each row of ``levels`` against exact(t) at
    its time: one ``_FieldErrors`` call with the levels as columns."""
    def gradient(axis: int, out: np.ndarray) -> None:
        out[...] = _fd_gradient(system, lambda p: _level_values(exact, times, p), axis).T

    return _level_fields(system, exact, times)(levels.T, gradient)


def _state_errors(problem, system: FemSystem, grid: TimeGrid, control, ensemble):
    """Path means of the squared L2 and H1 state errors, level by level, (N+1,) each.

    Each path block runs one sweep and owns one ``_FieldErrors``, fed the
    C-ordered (n, paths) level that the sweep yields (and overwrites on
    the next resume), so no level allocates a block-sized array.  Path p
    is measured against x0 + w_p x1 at its own Brownian value w_p, so
    every exact quantity is one (2, m) table [x0; x1] (``AffineInW.table``)
    times the (2, paths) basis [1; w] (``at_w``).  Blocks merge in path
    order and share one set of nodal loads.
    """
    l2_sum, h1_sum = np.zeros((2, grid.N + 1))
    data, nodes = SweepData(problem.spec, system, grid), system.mesh.interior_nodes
    for start in range(0, ensemble.paths, BLOCK):
        sub = ensemble.subset(start, min(start + BLOCK, ensemble.paths))
        errors, basis = _FieldErrors(system, sub.paths), np.ones((2, sub.paths))

        def gradient(axis: int, out: np.ndarray) -> None:
            at_w(_fd_gradient(system, lambda p: problem.exact_x.table(t, p), axis), basis, out=out)

        for n, x in iter_forward_paths(problem.spec, system, grid, control, sub, data):
            t = float(grid.times[n])
            basis[1] = sub.brownian_at(n)
            at_w(problem.exact_x.table(t, nodes), basis, out=errors.exact)
            l2, h1 = errors(x, gradient)
            l2_sum[n] += l2.sum()
            h1_sum[n] += h1.sum()
    return l2_sum / ensemble.paths, h1_sum / ensemble.paths


def fit_order(points) -> OrderFit:
    """Least-squares slope of log(error) against log(scale)."""
    pts = [(float(x), float(e)) for x, e in points]
    if len({x for x, _ in pts}) < 2:
        raise ValueError("order fit needs at least two distinct scales")
    if any(x <= 0.0 or e <= 0.0 for x, e in pts):
        raise ValueError("order fit needs positive scales and errors")
    lx = np.log([x for x, _ in pts])
    le = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(lx, le, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - np.mean(le)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(slope=float(slope), r_squared=r2)


def discrete_constraint_level(
    problem: ManufacturedProblem, system: FemSystem, grid: TimeGrid
) -> float:
    """Constraint level re-evaluated with the scheme's own quadrature.

    The exact constraint level is the continuous space-time integral of the
    exact mean state.  The discrete problem measures that integral with its
    right-endpoint rule on the implicit-Euler state, which differs by
    O(h^2 + tau); re-evaluating the defining integral the same way keeps
    the manufactured optimum exactly on the discrete constraint boundary.
    Without this, the multiplier soaks up the O(tau) quadrature gap
    amplified by the small norm of the auxiliary field (a factor of
    roughly 1/int(Qtilde), two orders of magnitude here), which buries the
    convergence rates of the adjoint and multiplier under a large-constant
    consistency error.
    """
    u = np.zeros((grid.N + 1, system.n))
    u[: grid.N] = _level_values(problem.exact_u, grid.times[: grid.N], system.mesh.interior_nodes)
    x = forward_mean(problem.spec, system, grid, u)
    return constraint_integral(x, system, grid)


def convergence_study(
    problem: ManufacturedProblem,
    resolutions: list[Resolution],
    config: OptimizerConfig = OptimizerConfig(),
    paths: int = DEFAULT_PATHS,
    seed: int = DEFAULT_SEED,
    estimator: str = ESTIMATORS[0],
    delta_mode: str = DELTA_MODES[0],
) -> list[ErrorReport]:
    """Optimize at each resolution and measure errors against the exact run.

    ``delta_mode='discrete'`` (default) runs each resolution with the
    constraint level from ``discrete_constraint_level``; ``'problem'``
    keeps the problem's continuous value, ``problem.delta``, literally.
    Every run uses ``config``.  An empty ``resolutions`` raises before any
    work.
    """
    if delta_mode not in DELTA_MODES:
        raise ValueError(f"delta_mode must be one of {DELTA_MODES}, got {delta_mode!r}")
    _check_estimator(estimator)
    if len(resolutions) == 0:
        raise ValueError("convergence_study needs at least one resolution")
    return [
        _error_report(problem, res, paths, seed, config, estimator, delta_mode)
        for res in resolutions
    ]


def _check_estimator(estimator: str) -> None:
    """Reject an estimator name that would otherwise run as mean-field."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")


@contextmanager
def _cell_context(label: str):
    """Prefix a numerical failure with the label of the cell it happened in."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"cell {label}: {exc}") from exc


def _error_report(problem, res, paths, seed, config, estimator, delta_mode) -> ErrorReport:
    """One convergence cell; its system and factorizations die on return.

    A failure names the cell it happened in.
    """
    with _cell_context(f"cells={res.cells} steps={res.steps}"):
        system, grid = setup(problem, res)
        ensemble = sample(paths, grid, seed)
        if delta_mode == "discrete":
            delta = discrete_constraint_level(problem, system, grid)
        else:
            delta = problem.delta
        loop_ensemble = ensemble if estimator == "monte-carlo" else None
        result = GradientProjection(problem.spec, system, grid, config, loop_ensemble).run(delta)
        return compute_errors(problem, result, ensemble, system, grid)


ORDER_QUANTITIES = (
    "strong_l2_state",
    "strong_l2_adjoint",
    "strong_l2_control",
    "mu_error",
    "h1_state",
    "h1_adjoint",
)


def orders_from_reports(reports: list[ErrorReport], scale: str = "tau") -> dict:
    """Order fits per error quantity against 'tau' or 'h'."""
    if scale not in ("tau", "h"):
        raise ValueError(f"scale must be 'tau' or 'h', got {scale!r}")
    fits = {}
    for name in ORDER_QUANTITIES:
        pts = [(getattr(r, scale), getattr(r, name)) for r in reports]
        fits[name] = fit_order(pts)
    return fits


@dataclass(frozen=True)
class TableCell:
    delta: float
    h: float
    tau: float
    integral: float
    mu: float
    iterations: int
    converged: bool
    step_error: float  # of the last iteration


def constraint_table(
    problem: ManufacturedProblem,
    deltas: list[float],
    resolutions: list[Resolution],
    config: OptimizerConfig = OptimizerConfig(),
    estimator: str = ESTIMATORS[0],
    paths: int = DEFAULT_PATHS,
    seed: int = DEFAULT_SEED,
) -> list[TableCell]:
    """Converged constraint integrals over a (delta, resolution) table.

    Each resolution builds one workspace (system, time grid, ensemble and
    a ``GradientProjection`` with ``config``), and every delta runs on it,
    since none of it depends on delta.  Cells are returned deltas outer,
    resolutions inner, but computed resolutions outer, so the first
    failing cell reported is the first in that order.  Every cell's
    post-projection integral must satisfy the constraint up to 1e-8; a
    violation raises, since it would mean the projection is broken rather
    than inaccurate.  Failures name the cell they happened in; an empty
    ``deltas`` or ``resolutions`` raises before any work.
    """
    _check_estimator(estimator)
    if len(deltas) == 0:
        raise ValueError("constraint_table needs at least one delta")
    if len(resolutions) == 0:
        raise ValueError("constraint_table needs at least one resolution")
    by_resolution = [
        _resolution_cells(problem, deltas, res, estimator, paths, seed, config)
        for res in resolutions
    ]
    return [cells[i] for i in range(len(deltas)) for cells in by_resolution]


def _resolution_cells(problem, deltas, res, estimator, paths, seed, config) -> list[TableCell]:
    """All deltas at one resolution; the shared workspace dies on return.

    A failure while building the workspace is reported against the first
    delta, the first cell that needs it.
    """
    where = f"cells={res.cells} steps={res.steps}"
    with _cell_context(f"delta={deltas[0]} {where}"):
        system, grid = setup(problem, res)
        ensemble = sample(paths, grid, seed) if estimator == "monte-carlo" else None
        loop = GradientProjection(problem.spec, system, grid, config, ensemble)
    cells = []
    for delta in deltas:
        with _cell_context(f"delta={delta} {where}"):
            cells.append(_table_cell(loop, float(delta)))
    return cells


def _table_cell(loop: GradientProjection, delta: float) -> TableCell:
    """One table cell on a shared workspace; its GP result dies on return."""
    result = loop.run(delta)
    integral = result.records[-1].constraint_integral
    if not integral <= delta + 1e-8:
        raise NumericalError(
            f"projection failed feasibility: integral {integral!r} > delta {delta!r} + 1e-8"
        )
    return TableCell(
        delta=delta,
        h=loop.system.mesh.h,
        tau=loop.grid.tau,
        integral=integral,
        mu=result.mu,
        iterations=result.iterations,
        converged=result.converged,
        step_error=result.records[-1].step_error,
    )
