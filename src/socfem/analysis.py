"""Error norms against exact solutions, order fits and constraint tables.

Exact solutions enter L2 errors by nodal interpolation and H1 errors by
element quadrature against the exact field (see ``h1_error_sq``).  Strong
state errors evaluate the exact field x0 + W x1 at each path's own discrete
Brownian values, so the measured error is scheme error, not Brownian-path
error; the gradients of x0 and x1 are taken once per level and combined
per path.  The path states are consumed level by level as the sweep yields
them, so memory does not grow with the number of time steps.
Order fits are least-squares slopes of log(error) against log(scale) and
report r^2 so flat or noisy fits are detectable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidStateError, NumericalError
from .fem import FemSystem, assemble
from .grid import TimeGrid, make_interval_mesh, make_rectangle_mesh, make_time_grid
from .optimizer import GradientProjection, OptimizerConfig, constraint_integral, gp_iterate
from .paths import BLOCK, BrownianEnsemble, sample
from .problems import ManufacturedProblem
from .spde import SweepData, Trajectory, forward_mean, iter_forward_paths


_FD_STEP = 1e-4  # central-difference step of the exact gradients in H1 errors


@dataclass(frozen=True)
class Resolution:
    """Cells per space axis and time-step count for one run."""

    cells: int
    steps: int


@dataclass(frozen=True)
class ErrorReport:
    """Discretization errors of one resolved run.

    strong_* fields are sqrt(max over time of the mean squared L2 error);
    h1_* fields are sqrt(tau * sum over steps of the mean squared H1
    seminorm error).
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


@dataclass(frozen=True)
class OrderFit:
    points: tuple
    slope: float
    r_squared: float


@dataclass
class SolutionBundle:
    """Converged fields passed to ``compute_errors``.

    The per-path states are re-simulated from ``control`` in blocks while
    errors accumulate.
    """

    control: Trajectory
    adjoint_mean: Trajectory
    mu: float


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


def _interior_values(system: FemSystem, fn, t: float) -> np.ndarray:
    return np.asarray(fn(t, system.mesh.interior_nodes), dtype=float)


def h1_error_sq(system: FemSystem, nodal: np.ndarray, exact_eval, fd_step: float = _FD_STEP):
    """Squared H1 seminorm of (exact - P1 field) by element quadrature.

    ``nodal`` is a batch (..., n_interior) of coefficient vectors;
    ``exact_eval`` maps points (m, dim) to values (..., m).  Exact
    gradients come from central differences, so only point values of the
    exact field are needed.  Measuring against the exact field rather than
    its interpolant matters here: on uniform meshes the gradient error
    against the interpolant superconverges and would hide the true rate.
    """
    return _h1_gap_sq(system, nodal, _fd_gradients(system, exact_eval, fd_step))


def _fd_gradients(system: FemSystem, exact_eval, fd_step: float = _FD_STEP) -> list:
    """Central-difference gradient of ``exact_eval`` at the quadrature points,
    one array (..., n_quad) per axis."""
    qp = system.quad_points
    return [
        (np.asarray(exact_eval(qp + s), dtype=float) - np.asarray(exact_eval(qp - s), dtype=float))
        / (2.0 * fd_step)
        for s in fd_step * np.eye(system.mesh.dim)
    ]


def _h1_gap_sq(system: FemSystem, nodal: np.ndarray, exact_grads: list) -> np.ndarray:
    """Squared H1 seminorm of (exact - P1 field) from exact gradients at the
    quadrature points (see ``_fd_gradients``)."""
    nodal = np.asarray(nodal, dtype=float)
    ne = system.mesh.elements.shape[0]
    qwts = system.quad_weights.reshape(ne, -1)
    batch = nodal.shape[:-1]
    total = np.zeros(batch)
    for g_exact, grad_op in zip(exact_grads, system.grad_ops):
        g_fe = (grad_op @ nodal.T).T
        diff = g_exact.reshape(batch + (ne, qwts.shape[1])) - g_fe[..., None]
        total += np.einsum("...eq,eq->...", diff**2, qwts)
    return total


def compute_errors(
    problem: ManufacturedProblem,
    bundle: SolutionBundle,
    ensemble: BrownianEnsemble,
    system: FemSystem,
    grid: TimeGrid,
) -> ErrorReport:
    """Errors of a solution bundle against the problem's exact fields."""
    mass = system.mass_product

    # deterministic control / adjoint errors; L2 against the nodal
    # interpolant, H1 against the exact field itself
    ctrl_sq = np.zeros(grid.N + 1)
    adj_sq = np.zeros(grid.N + 1)
    adj_h1 = np.zeros(grid.N + 1)
    for n in range(grid.N + 1):
        t = float(grid.times[n])
        ey = bundle.adjoint_mean.values[n] - _interior_values(system, problem.exact_y, t)
        adj_sq[n] = ey @ mass(ey)
        adj_h1[n] = h1_error_sq(
            system, bundle.adjoint_mean.values[n], lambda p, _t=t: problem.exact_y(_t, p)
        )
        if n < grid.N:
            eu = bundle.control.values[n] - _interior_values(system, problem.exact_u, t)
            ctrl_sq[n] = eu @ mass(eu)

    # per-path state errors, added level by level as each block's sweep
    # yields them; blocks merge in path order and share one set of nodal loads
    l2_sum = np.zeros(grid.N + 1)
    h1_sum = np.zeros(grid.N + 1)
    data = SweepData(problem.spec, system, grid)
    for start in range(0, ensemble.paths, BLOCK):
        sub = ensemble.subset(start, min(start + BLOCK, ensemble.paths))
        for n, x in iter_forward_paths(problem.spec, system, grid, bundle.control, sub, data):
            t, w = float(grid.times[n]), sub.brownian_at(n)
            l2, h1 = _level_state_errors(problem, system, t, x.T, w)
            l2_sum[n] += l2
            h1_sum[n] += h1
    l2_sum /= ensemble.paths
    h1_sum /= ensemble.paths

    return ErrorReport(
        h=system.mesh.h,
        tau=grid.tau,
        paths=ensemble.paths,
        seed=ensemble.seed,
        strong_l2_state=float(np.sqrt(np.max(l2_sum))),
        strong_l2_adjoint=float(np.sqrt(np.max(adj_sq))),
        strong_l2_control=float(np.sqrt(np.max(ctrl_sq))),
        h1_state=float(np.sqrt(grid.tau * h1_sum[1:].sum())),
        h1_adjoint=float(np.sqrt(grid.tau * adj_h1[: grid.N].sum())),
        mu_error=abs(bundle.mu - problem.exact_mu),
    )


def _level_state_errors(problem, system, t: float, states: np.ndarray, w: np.ndarray):
    """Path-summed squared L2 and H1 state errors at one time level.

    ``states`` holds the per-path fields (paths, n_interior) at time t and
    ``w`` the paths' Brownian values there.  Path p is measured against
    x0 + w_p x1; the gradients of x0 and x1 are taken once and combined as
    G0 + w ⊗ G1.
    """
    pts = system.mesh.interior_nodes
    x = problem.exact_x
    w = w[:, None]
    e = states - (x.mean(t, pts) + w * x.slope(t, pts))
    l2 = np.einsum("pn,pn->", e, system.mass_product(e.T).T)
    grads = zip(
        _fd_gradients(system, lambda p: x.mean(t, p)),
        _fd_gradients(system, lambda p: x.slope(t, p)),
    )
    return l2, _h1_gap_sq(system, states, [g0 + w * g1 for g0, g1 in grads]).sum()


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
    return OrderFit(points=tuple(pts), slope=float(slope), r_squared=r2)


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
    pts = system.mesh.interior_nodes
    u = np.zeros((grid.N + 1, system.n))
    for n in range(grid.N):
        u[n] = np.asarray(problem.exact_u(float(grid.times[n]), pts), dtype=float)
    x = forward_mean(problem.spec, system, grid, Trajectory(u, grid))
    return constraint_integral(x, system, grid)


def convergence_study(
    problem: ManufacturedProblem,
    resolutions: list[Resolution],
    paths: int = 2000,
    seed: int = 7,
    rho: float | None = None,
    eps0: float = 1e-6,
    max_iter: int = 500,
    estimator: str = "mean-field",
    delta_mode: str = "discrete",
) -> list[ErrorReport]:
    """Optimize at each resolution and measure errors against the exact run.

    ``delta_mode='discrete'`` (default) runs each resolution with the
    constraint level from ``discrete_constraint_level``; ``'problem'``
    keeps the problem's continuous value literally.
    """
    if delta_mode not in ("discrete", "problem"):
        raise ValueError(f"delta_mode must be 'discrete' or 'problem', got {delta_mode!r}")
    config = OptimizerConfig(rho=rho, eps0=eps0, max_iter=max_iter)
    return [
        _error_report(problem, res, paths, seed, config, estimator, delta_mode)
        for res in resolutions
    ]


def _error_report(problem, res, paths, seed, config, estimator, delta_mode) -> ErrorReport:
    """One convergence cell; its system and factorizations die on return."""
    system, grid = setup(problem, res)
    ensemble = sample(paths, grid, seed)
    spec = problem.spec
    if delta_mode == "discrete":
        spec = replace(spec, delta=discrete_constraint_level(problem, system, grid))
    result = gp_iterate(
        spec,
        system,
        grid,
        config,
        estimator=estimator,
        ensemble=ensemble if estimator == "monte-carlo" else None,
    )
    bundle = SolutionBundle(control=result.control, adjoint_mean=result.adjoint_mean, mu=result.mu)
    return compute_errors(problem, bundle, ensemble, system, grid)


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


def constraint_table(
    problem: ManufacturedProblem,
    deltas: list[float],
    resolutions: list[Resolution],
    estimator: str = "mean-field",
    paths: int = 2000,
    seed: int = 7,
    rho: float | None = None,
    eps0: float = 1e-6,
    max_iter: int = 500,
) -> list[TableCell]:
    """Converged constraint integrals over a (delta, resolution) table.

    Each resolution builds one workspace (system, time grid, ensemble and
    ``GradientProjection``), and every delta runs on it, since none of it
    depends on delta.  Cells are returned deltas outer, resolutions inner,
    but computed resolutions outer, so the first failing cell reported is
    the first in that order.  Every cell's post-projection integral must
    satisfy the constraint up to 1e-8; a violation raises, since it would
    mean the projection is broken rather than inaccurate.  Failures name
    the cell they happened in.
    """
    config = OptimizerConfig(rho=rho, eps0=eps0, max_iter=max_iter)
    by_resolution = [
        _resolution_cells(problem, deltas, res, estimator, paths, seed, config)
        for res in resolutions
    ]
    return [cells[i] for i in range(len(deltas)) for cells in by_resolution]


@contextmanager
def _cell_context(delta, res: Resolution):
    """Prefix a numerical failure with the table cell it happened in."""
    try:
        yield
    except (NumericalError, InvalidStateError) as exc:
        raise type(exc)(
            f"cell delta={delta} cells={res.cells} steps={res.steps}: {exc}"
        ) from exc


def _resolution_cells(problem, deltas, res, estimator, paths, seed, config) -> list[TableCell]:
    """All deltas at one resolution; the shared workspace dies on return.

    A failure while building the workspace is reported against the first
    delta, the first cell that needs it.
    """
    with _cell_context(deltas[0], res):
        system, grid = setup(problem, res)
        ensemble = sample(paths, grid, seed) if estimator == "monte-carlo" else None
        loop = GradientProjection(
            problem.spec, system, grid, rho=config.rho, estimator=estimator, ensemble=ensemble
        )
    cells = []
    for delta in deltas:
        with _cell_context(delta, res):
            cells.append(_table_cell(loop, float(delta), config))
    return cells


def _table_cell(loop: GradientProjection, delta: float, config: OptimizerConfig) -> TableCell:
    """One table cell on a shared workspace; its GP result dies on return."""
    result = loop.run(config, delta)
    integral = result.records[-1].constraint_integral
    if not integral <= delta + 1e-8:
        raise InvalidStateError(
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
    )
