"""Time-stepping solvers for the controlled stochastic heat equation.

The state and the adjoint take the same implicit-Euler step on interior P1
coefficients, with the factorized SPD operator M + tau*gamma*A; only the
direction differs.  Forward from x^0:

    (M + tau*gamma*A) x^{n+1} = M x^n + tau*M u^n + (data terms of level n)

and backward from y^N = 0:

    (M + tau*gamma*A) y^n = M y^{n+1} + tau*source[n+1]

Every field is a plain (N+1, n) array of interior coefficients, row n
holding level n.  tau*M u^n is read from one table M U^T over the whole
trajectory.  The data terms of column j are tau*(load(f0(t_n)) + W_n^j
load(f1(t_n))), then dW_{n+1}^j load(sigma(t_n)); the control response
adds none.  The source is M xbar - load(xbar_d) + mu*load(1) for the mean
adjoint and load(1) for Mtilde.  The load tables are built level by
level through ``FemSystem.load_kernel`` (``_load_rows``); every row equals
``load_vector`` bit for bit; the forcing's is one (N, 2, n) table.

Each layout has one kernel, and every solve is residual-checked
(``EulerSolver.check``) before a caller sees its level:

* the path block: ``iter_forward_paths`` steps a C-ordered (n, paths)
  block in buffers it allocates once, solves an F-ordered copy in place
  and checks each level before it yields it, in the same array every
  time, so no path history is kept and a consumer copies what it keeps.
  It copies its control loads, so a sweep run while it is suspended
  cannot change them;
* the single column: ``_row_sweep`` runs the mean state, the control
  response and Qtilde forward, and the mean adjoint and Mtilde backward,
  on the rows of an (N+1, n) ``out`` (read in reverse going backward).  A
  step adds M times the neighbouring level into the zeroed row of the new
  level (``FemSystem.mass_kernel``), adds its staged row and its data
  terms, stages the right-hand side over that row and solves in place.
  After the last step one ``SweepTables.check`` covers every level.

A single-column sweep stages its rows in ``FemSystem.sweep_tables(N).rows``:
its caller writes the scaled loads there (``_control_loads``, the
adjoint's source), and the sweep overwrites them with its right-hand
sides.  No sweep takes tables as an argument or allocates one but the
``out`` it is not given, and each data-term closure (``Terms``) owns its
scratch.

Problem data depend on the Brownian value only through ``AffineInW``
pairs f = f0 + W f1, evaluated one way: a table [f0; f1]
(``AffineInW.table``, or a level of a load table) times the basis [1; w]
(``at_w``), (2,) for one column and (2, k) for k paths.  The forcing of
every sweep and the mean target loads go through it.  Controls, forcing
and the noise coefficient are evaluated at the left time point; states
and tracking targets at the right one.  The scheme is linear, so the average
of the path states over an ensemble is one single-column sweep driven by
the ensemble's mean Brownian values and increments; at the exact means,
both zero, it gives the exact expectation.  There every slope term is
multiplied by zero, so the exact mean sweep and the exact mean target
loads (``forward_mean`` and ``mean_target_loads`` without an ensemble)
load the means alone, through the same kernel: the terms they skip add
only zeros, and neither slope nor sigma is evaluated.

Conditional expectations of the martingale part (the Z process) are
estimated across simulated paths by least-squares regression on the basis
{1, W_{t_n}}, with a variance-reducing centering step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError
from .fem import FemSystem, l2_project
from .grid import TimeGrid
from .paths import BrownianEnsemble

SpaceFn = Callable[[np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[float, np.ndarray], np.ndarray]
Terms = Callable[[int, np.ndarray], None]  # (step, rhs): adds the step's data terms to rhs


@dataclass(frozen=True)
class AffineInW:
    """A datum ``mean(t, pts) + w * slope(t, pts)`` affine in the Brownian value w.

    ``mean`` is the w=0 slice, the expectation since E[W_t] = 0.  The two
    are combined only as ``table``, which ``at_w`` evaluates at w.
    """

    mean: SpaceTimeFn
    slope: SpaceTimeFn

    def table(self, t: float, points: np.ndarray) -> np.ndarray:
        """[mean(t, points); slope(t, points)], shape (2, m); a scalar fills its row."""
        values = np.empty((2, points.shape[0]))
        values[0] = self.mean(t, points)
        values[1] = self.slope(t, points)
        return values


def at_w(table: np.ndarray, basis: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A (2, m) table [f0; f1] times the basis [1; w]: f0 + w f1.

    ``basis`` is (2,) for one Brownian value, giving (m,), or (2, k) for k
    of them, giving (m, k), one column each.  Both go through one
    ``np.einsum``, so a column gets the same bits in either layout.
    """
    return np.einsum("wm,w...->m...", table, basis, out=out)


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient data for one control problem.

    Space-dependent callables receive points of shape (m, dim) and return
    values of shape (m,).  The forcing and the tracking target depend on
    the Brownian value, affinely (see ``AffineInW``).  The constraint level
    is not problem data: it is the argument of ``GradientProjection.run``,
    so one problem serves every level.
    """

    alpha: float
    T: float
    x0: SpaceFn
    sigma: SpaceTimeFn
    forcing: AffineInW
    target: AffineInW
    gamma: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def _check_alignment(grid: TimeGrid, steps: int, tau: float, what: str):
    if steps != grid.N or abs(tau - grid.tau) > 1e-12 * grid.tau:
        raise ValueError(f"{what} is not aligned with the time grid")


def _load_rows(system: FemSystem, fn: SpaceTimeFn, times: np.ndarray, *shape: int) -> np.ndarray:
    """load(fn(t, .)) at each t of ``times``, one level each: (len(times), n)
    for a scalar datum, (len(times), 2, n) for a table (``AffineInW.table``,
    ``shape`` (2,)).

    Each level's quadrature values are staged in one buffer (a scalar fills
    it, a wrong shape raises), and each row of them is added to its zeroed
    row of the result by ``FemSystem.load_kernel``, the kernel
    ``load_vector`` ends in; so every row equals ``load_vector`` at its
    time bit for bit, without scipy's per-call dispatch.
    """
    n_quad = system.quad_points.shape[0]
    out, values = np.zeros((len(times), *shape, system.n)), np.empty((*shape, n_quad))
    for level, t in zip(out, times):
        values[...] = fn(float(t), system.quad_points)
        for row_values, row in zip(values.reshape(-1, n_quad), level.reshape(-1, system.n)):
            system.load_kernel(row_values, row)
    return out


def _mean_brownian(grid: TimeGrid, ensemble: BrownianEnsemble):
    """The ensemble's mean Brownian values (N+1,) and increments (N,)."""
    _check_alignment(grid, ensemble.steps, ensemble.tau, "ensemble")
    return ensemble.brownian.mean(axis=0), ensemble.increments.mean(axis=0)


class SweepData:
    """Nodal data of the forward sweep, built once at construction.

    ``x0`` is the projected initial state (n,); ``forcing`` holds the load
    table [load(f0); load(f1)] at t_0..t_{N-1}, (N, 2, n), and ``sigma``
    load(sigma) there, (N, n).  ``compute_errors`` builds one and shares it
    across the path blocks of its sweep.
    """

    def __init__(self, spec: ProblemSpec, system: FemSystem, grid: TimeGrid):
        times = grid.times[:-1]
        self.x0 = l2_project(system, spec.x0)
        self.forcing = _load_rows(system, spec.forcing.table, times, 2)
        self.sigma = _load_rows(system, spec.sigma, times)


def _data_terms(data: SweepData, tau: float, brownian: np.ndarray, increments: np.ndarray) -> Terms:
    """``terms(n, rhs)`` adds the data terms of forward step n to rhs:
    tau*(load(f0) + W_n load(f1)), then dW_{n+1} load(sigma), all at t_n.

    ``brownian`` (..., N+1) and ``increments`` (..., N) are 1-D for one
    column, whose rhs is (n,), or hold one row per path of a block, whose
    rhs is (n, k).  The forcing is the level's load table times the basis
    [1; W_n] (``at_w``), the noise the outer product of load(sigma) with
    dW; each is staged in the closure's own array of rhs's shape.
    """
    forcing, sigma = data.forcing, data.sigma
    basis = np.ones((2,) + brownian.shape[:-1])
    scratch = np.empty(sigma.shape[1:] + brownian.shape[:-1])

    def terms(n: int, rhs: np.ndarray) -> None:
        basis[1] = brownian[..., n]
        rhs += np.multiply(tau, at_w(forcing[n], basis, out=scratch), out=scratch)
        rhs += np.multiply.outer(sigma[n], increments[..., n], out=scratch)

    return terms


def _control_loads(system: FemSystem, grid: TimeGrid, control: np.ndarray) -> np.ndarray:
    """tau*M u^n for n < N, staged in the sweep tables' rows; ``control`` is (N+1, n)."""
    if control.shape != (grid.N + 1, system.n):
        raise ValueError(f"control of shape {control.shape} is not aligned with the time grid")
    rows = system.sweep_tables(grid.N).rows
    return np.multiply(grid.tau, system.mass_rows(control[: grid.N], rows), out=rows)


def _row_sweep(
    system: FemSystem, grid: TimeGrid, gamma: float, start: np.ndarray | float,
    out: np.ndarray | None = None, terms: Terms | None = None, backward: bool = False,
) -> np.ndarray:
    """The single-column kernel: N implicit-Euler steps on the rows of ``out``.

    ``out`` (N+1, n) is allocated when not given; the mass kernel reads its
    rows unchecked, so it must be a C-ordered float64 array of that shape,
    or ``ValueError`` is raised before the first solve.  Forward, level 0
    is ``start`` and step n solves for level n+1; backward, level N is
    ``start`` and step n solves for level N-1-n, on the rows of ``out`` and
    ``tables.rows`` in reverse (``tables = system.sweep_tables(N)``).  Step
    n adds M times the previous level into the zeroed row of the new one,
    then row n of ``tables.rows`` (the caller's scaled load of the step)
    and, if given, ``terms(n, rhs)``; it stages the right-hand side over
    that row and solves in place, unchecked.  After the last step one
    batched check covers every level, in sweep order, before ``out`` is
    returned.
    """
    N, n = grid.N, system.n
    out = np.empty((N + 1, n)) if out is None else out
    if out.shape != (N + 1, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-ordered float64 array of shape {(N + 1, n)}, "
            f"got {out.dtype} {out.shape}"
        )
    solver, tables = system.euler_solver(grid.tau, gamma), system.sweep_tables(N)
    matvec, solve = system.mass_kernel, solver.solve_unchecked
    levels, rows, sweep = range(N + 1), tables.rows, out
    if backward:
        levels, rows, sweep = levels[::-1], rows[::-1], out[::-1]
    sweep[0] = start
    sweep[1:] = 0.0
    for step, prev, rhs, staged in zip(range(N), sweep[:-1], sweep[1:], rows):
        # M x and the staged row stay separate terms: M(x + tau*u) rounds differently
        matvec(prev, rhs)
        rhs += staged
        if terms is not None:
            terms(step, rhs)
        staged[...] = rhs
        solve(rhs)
    tables.check(solver, rows, sweep[1:], levels[1:])
    return out


def iter_forward_paths(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: np.ndarray,
    ensemble: BrownianEnsemble,
    data: SweepData | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Advance all paths together, yielding (level, states (n_interior, paths)).

    Level 0 is the projected initial state.  Step n adds to M x^n, in this
    order, tau*M u^n, the forcing loads of every path and the noise
    columns, each staged in preallocated buffers (``_data_terms``), then
    solves with (M + tau*gamma*A) on an F-ordered copy, in place.  Each
    level is residual-checked before it is yielded.  Every level is
    yielded in the same C-ordered (n, paths) array, which the next resume
    overwrites: consumers copy what they keep and must not write to it.
    The control loads are copied out of the shared sweep tables, so any
    sweep may run between two levels.  ``data`` is built here unless a
    caller that sweeps several blocks shares one.
    """
    _check_alignment(grid, ensemble.steps, ensemble.tau, "ensemble")
    data = SweepData(spec, system, grid) if data is None else data
    terms = _data_terms(data, grid.tau, ensemble.brownian, ensemble.increments)
    loads = _control_loads(system, grid, control)[:, :, None].copy()
    solver = system.euler_solver(grid.tau, spec.gamma)
    x, rhs = np.empty((2, system.n, ensemble.paths))
    solution = np.empty(x.shape, order="F")
    x[...] = data.x0[:, None]
    yield 0, x
    for n in range(grid.N):
        # M x and tau*M u stay separate terms: M(x + tau*u) rounds differently
        rhs.fill(0.0)
        system.mass_product(x, rhs)
        rhs += loads[n]
        terms(n, rhs)
        np.copyto(solution, rhs)
        np.copyto(x, solver.solve_unchecked(solution))
        solver.check(rhs, x)
        yield n + 1, x


def forward_mean(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: np.ndarray,
    ensemble: BrownianEnsemble | None = None,
) -> np.ndarray:
    """Mean state trajectory, one single-column sweep.

    With an ensemble, the path average of ``iter_forward_paths`` over it,
    which by linearity is the sweep driven by the ensemble's mean Brownian
    values and increments.  Without one, the exact expectation: the sweep
    at W = dW = 0, whose data terms are tau*load(f0) alone, so neither the
    forcing's slope nor sigma is evaluated.
    """
    if ensemble is None:
        x0 = l2_project(system, spec.x0)
        forcing = _load_rows(system, spec.forcing.mean, grid.times[:-1])
        scratch = np.empty(system.n)

        def terms(n: int, rhs: np.ndarray) -> None:
            rhs += np.multiply(grid.tau, forcing[n], out=scratch)
    else:
        data = SweepData(spec, system, grid)
        x0, terms = data.x0, _data_terms(data, grid.tau, *_mean_brownian(grid, ensemble))
    _control_loads(system, grid, control)
    return _row_sweep(system, grid, spec.gamma, x0, terms=terms)


def control_response(
    system: FemSystem, grid: TimeGrid, control: np.ndarray, gamma: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """State response to the control alone (zero data, zero noise).

    By linearity the full mean state is ``base + control_response``, which
    the optimizer exploits to avoid re-simulating path ensembles.  The
    levels are written into ``out`` (N+1, n) when given.
    """
    _control_loads(system, grid, control)
    return _row_sweep(system, grid, gamma, 0.0, out)


def mean_target_loads(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    ensemble: BrownianEnsemble | None = None,
) -> np.ndarray:
    """Load vectors of the mean tracking target at levels 1..N (row 0 zero):
    the target's load table times [1; Wbar_n], for the mean Brownian values
    of an ensemble.  Without one, Wbar = 0 leaves load(target mean), and the
    target's slope is not evaluated."""
    loads = np.zeros((grid.N + 1, system.n))
    if ensemble is None:
        loads[1:] = _load_rows(system, spec.target.mean, grid.times[1:])
        return loads
    w_bar, _ = _mean_brownian(grid, ensemble)
    table, basis = _load_rows(system, spec.target.table, grid.times[1:], 2), np.ones(2)
    for row, level, w in zip(loads[1:], table, w_bar[1:]):
        basis[1] = w
        at_w(level, basis, out=row)
    return loads


def backward_adjoint_from_loads(
    system: FemSystem, grid: TimeGrid, gamma: float,
    x_levels: np.ndarray, target_loads: np.ndarray, mu: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mean adjoint driven by the tracking misfit and the multiplier.

    Terminal value zero; the source at level n is
    M xbar^n - load(xbar_d(t_n)) + mu*load(1), with the target loads
    precomputed (see ``mean_target_loads``).  For deterministic controls
    this is the exact expectation of the conditional-expectation
    recursion, since the noise enters linearly.  The levels are written
    into ``out`` (N+1, n) when given.  Misaligned ``x_levels`` or
    ``target_loads`` raise ``ValueError`` before any sweep table is touched.
    """
    for name, levels in (("x_levels", x_levels), ("target_loads", target_loads)):
        if levels.shape != (grid.N + 1, system.n):
            raise ValueError(f"{name} of shape {levels.shape} is not aligned with the time grid")
    source = system.mass_rows(x_levels[1:], system.sweep_tables(grid.N).rows)
    source -= target_loads[1:]
    source += mu * system.ones_load
    source *= grid.tau
    return _row_sweep(system, grid, gamma, 0.0, out, backward=True)


def mtilde_solve(system: FemSystem, grid: TimeGrid, gamma: float) -> np.ndarray:
    """Backward auxiliary field with unit source and zero terminal value.

    Adding mu times this field to the constraint-free adjoint gives the
    full adjoint; it is also the direction of the projection step.
    """
    np.multiply(grid.tau, system.ones_load, out=system.sweep_tables(grid.N).rows)
    return _row_sweep(system, grid, gamma, 0.0, backward=True)


def qtilde_solve(
    system: FemSystem, grid: TimeGrid, mtilde: np.ndarray, gamma: float
) -> np.ndarray:
    """Forward state response to the auxiliary field used as a control."""
    return control_response(system, grid, mtilde, gamma)


@dataclass(frozen=True)
class ZEstimate:
    """Regression estimate of the martingale coefficient at one level.

    The fitted conditional expectation at Brownian value w is
    ``const + slope * w`` per interior node; ``fallback`` marks the
    constant-only basis used when W_{t_n} is degenerate (level 0).
    """

    level: int
    const: np.ndarray
    slope: np.ndarray
    fallback: bool


def lsmc_z_estimate(
    system: FemSystem,
    grid: TimeGrid,
    ensemble: BrownianEnsemble,
    payoff: np.ndarray,
    level: int,
) -> ZEstimate:
    """Estimate E[payoff * dW_{n+1} | F_{t_n}] by least squares, n = level.

    ``payoff`` holds per-path interior fields at level n+1, shape
    (paths, n_interior).  The conditional mean of the payoff given W_{t_n}
    is fitted and removed first; this leaves the estimand unchanged
    (E[g(W_{t_n}) dW | F_{t_n}] = 0) but strips the dominant noise from the
    regression.  With all W_{t_n} equal (level 0) the basis degenerates to
    {1} and the estimate is the plain mean.
    """
    payoff = np.asarray(payoff, dtype=float)
    if not 0 <= level < grid.N:
        raise ValueError(f"level must be in 0..{grid.N - 1}, got {level}")
    if payoff.shape != (ensemble.paths, system.n):
        raise ValueError(
            f"payoff shape {payoff.shape} does not match (paths, n) = "
            f"({ensemble.paths}, {system.n})"
        )
    w = ensemble.brownian_at(level)
    dw = ensemble.increments[:, level]
    fallback = bool(np.ptp(w) == 0.0)
    if fallback:
        basis = np.ones((ensemble.paths, 1))
    else:
        basis = np.column_stack([np.ones(ensemble.paths), w])

    centered_fit, _, rank, _ = np.linalg.lstsq(basis, payoff, rcond=None)
    if rank < basis.shape[1]:
        raise NumericalError("rank-deficient regression basis")
    residual = payoff - basis @ centered_fit
    coef, _, _, _ = np.linalg.lstsq(basis, residual * dw[:, None], rcond=None)
    const = coef[0]
    slope = coef[1] if not fallback else np.zeros(system.n)
    return ZEstimate(level=level, const=const, slope=slope, fallback=fallback)
