"""Time-stepping solvers for the controlled stochastic heat equation.

Every sweep runs one of two implicit-Euler kernels on interior P1
coefficients, both with the factorized SPD operator M + tau*gamma*A.

The forward kernel (``_forward``) steps an (n, k) column block:

    (M + tau*gamma*A) x^{n+1} = M x^n + tau*M u^n + (extra terms of level n)

tau*M u^n is read from one table M U^T over the whole trajectory.  The
data terms of column j are tau*(load(f0(t_n)) + W_n^j load(f1(t_n))), then
dW_{n+1}^j load(sigma(t_n)); the control response adds none.

The backward kernel (``_backward``) starts from y^N = 0:

    (M + tau*gamma*A) y^n = M y^{n+1} + tau*source[n+1]

with source M xbar - load(xbar_d) + mu*load(1) for the mean adjoint and
load(1) for Mtilde.

Problem data depend on the Brownian value only through ``AffineInW``
pairs f = f0 + W f1.  Controls, forcing and the noise coefficient are
evaluated at the left time point; states and tracking targets at the
right one.  The scheme is linear, so the average of the path states over
an ensemble is one single-column sweep driven by the ensemble's mean
Brownian values and increments.  With the exact means, both zero, that
sweep is driven by f0 alone and gives the exact expectation.

Conditional expectations of the martingale part (the Z process) are
estimated across simulated paths by least-squares regression on the basis
{1, W_{t_n}}, with a variance-reducing centering step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NumericalError
from .fem import FemSystem, l2_project, load_vector
from .grid import TimeGrid
from .paths import BrownianEnsemble

SpaceFn = Callable[[np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AffineInW:
    """A datum ``mean(t, pts) + w * slope(t, pts)`` affine in the Brownian value w.

    ``mean`` is the w=0 slice, the expectation since E[W_t] = 0.
    """

    mean: SpaceTimeFn
    slope: SpaceTimeFn


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient data for one control problem.

    Space-dependent callables receive points of shape (m, dim) and return
    values of shape (m,).  The forcing and the tracking target depend on
    the Brownian value, affinely (see ``AffineInW``).
    """

    alpha: float
    delta: float
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


@dataclass
class Trajectory:
    """Interior nodal coefficients per time level, shape (N+1, n_interior)."""

    values: np.ndarray
    grid: TimeGrid

    @classmethod
    def zeros(cls, grid: TimeGrid, n: int) -> "Trajectory":
        return cls(np.zeros((grid.N + 1, n)), grid)

    def copy(self) -> "Trajectory":
        return Trajectory(self.values.copy(), self.grid)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"trajectory needs shape (N+1, n) = ({self.grid.N + 1}, *), "
                f"got {self.values.shape}"
            )


@dataclass
class PathEnsembleTrajectory:
    """Per-path trajectories sharing one grid, shape (paths, N+1, n)."""

    values: np.ndarray
    grid: TimeGrid


def _check_alignment(grid: TimeGrid, steps: int, tau: float, what: str):
    if steps != grid.N or abs(tau - grid.tau) > 1e-12 * grid.tau:
        raise ValueError(f"{what} is not aligned with the time grid")


def _load_at(system: FemSystem, fn: SpaceTimeFn, t: float) -> np.ndarray:
    return load_vector(system, lambda p: fn(t, p))


def _mean_brownian(grid: TimeGrid, ensemble: BrownianEnsemble | None):
    """The ensemble's mean Brownian values (1, N+1) and increments (1, N); None, None
    for the exact means, both zero."""
    if ensemble is None:
        return None, None
    _check_alignment(grid, ensemble.steps, ensemble.tau, "ensemble")
    return (
        ensemble.brownian.mean(axis=0, keepdims=True),
        ensemble.increments.mean(axis=0, keepdims=True),
    )


def _data_terms(spec: ProblemSpec, system: FemSystem, grid: TimeGrid, brownian, increments):
    """Data terms of forward step n for columns j: tau*(load(f0) + W^j_n load(f1)),
    then dW^j_{n+1} load(sigma), all at t_n, with W^j = ``brownian[j]`` and dW^j =
    ``increments[j]``.  Both are None for zero means: only tau*load(f0) is built."""

    def terms(n: int):
        t = float(grid.times[n])
        forcing = _load_at(system, spec.forcing.mean, t)[:, None]
        if brownian is None:
            yield grid.tau * forcing
            return
        slope = _load_at(system, spec.forcing.slope, t)[:, None]
        yield grid.tau * (forcing + slope * brownian[:, n])
        yield _load_at(system, spec.sigma, t)[:, None] * increments[:, n]

    return terms


def _mass_rows(system: FemSystem, levels: np.ndarray) -> np.ndarray:
    """M applied to every row of an (L, n) level table, one sparse-dense product.

    Row l equals ``system.mass @ levels[l]`` bit for bit.  The result is
    copied to C order because the sweeps read it row by row.
    """
    return np.ascontiguousarray(system.mass_product(levels.T).T)


def _forward(
    system: FemSystem, grid: TimeGrid, gamma: float, x: np.ndarray, control: Trajectory,
    extra_terms: Callable[[int], Iterable[np.ndarray]] = lambda n: (),
) -> Iterator[tuple[int, np.ndarray]]:
    """Forward implicit-Euler kernel over an (n, k) column block.

    Yields (level, x), level 0 being ``x`` itself; yielded arrays are owned
    by the sweep.  Step n adds, in this order, tau*M u^n and each term of
    ``extra_terms(n)`` to M x^n, then solves with (M + tau*gamma*A).
    """
    _check_alignment(grid, control.grid.N, control.grid.tau, "control trajectory")
    solver = system.euler_solver(grid.tau, gamma)
    mass = system.mass_product
    control_loads = grid.tau * _mass_rows(system, control.values[: grid.N])
    yield 0, x
    for n in range(grid.N):
        # M x and tau*M u stay separate terms: M(x + tau*u) rounds differently
        rhs = mass(x)
        rhs += control_loads[n][:, None]
        for term in extra_terms(n):
            rhs += term
        x = solver.solve(rhs)
        yield n + 1, x


def _backward(system: FemSystem, grid: TimeGrid, gamma: float, source: np.ndarray) -> Trajectory:
    """Backward implicit-Euler kernel with zero terminal value.

    ``source`` is an (N+1, n) table; step n solves
    (M + tau*gamma*A) y^n = M y^{n+1} + tau*source[n+1].
    """
    solver = system.euler_solver(grid.tau, gamma)
    mass = system.mass_product
    out = np.zeros((grid.N + 1, system.n))
    y = np.zeros(system.n)
    for n in range(grid.N - 1, -1, -1):
        y = solver.solve(mass(y) + grid.tau * source[n + 1])
        out[n] = y
    return Trajectory(out, grid)


def _single_column(sweep: Iterator[tuple[int, np.ndarray]], grid: TimeGrid, n: int) -> Trajectory:
    out = np.empty((grid.N + 1, n))
    for level, x in sweep:
        out[level] = x[:, 0]
    return Trajectory(out, grid)


def iter_forward_paths(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: Trajectory,
    ensemble: BrownianEnsemble,
) -> Iterator[tuple[int, np.ndarray]]:
    """Advance all paths together, yielding (level, states (n_interior, paths)).

    Level 0 is the projected initial state.  Step n adds the forcing loads
    of every path, then the noise columns.  Yielded arrays are owned by the
    sweep; consumers must copy what they keep.
    """
    _check_alignment(grid, ensemble.steps, ensemble.tau, "ensemble")
    terms = _data_terms(spec, system, grid, ensemble.brownian, ensemble.increments)
    x = np.tile(l2_project(system, spec.x0)[:, None], (1, ensemble.paths))
    yield from _forward(system, grid, spec.gamma, x, control, terms)


def forward_paths(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: Trajectory,
    ensemble: BrownianEnsemble,
) -> PathEnsembleTrajectory:
    """Solve the state equation along every path of the ensemble."""
    out = np.empty((ensemble.paths, grid.N + 1, system.n))
    for n, x in iter_forward_paths(spec, system, grid, control, ensemble):
        out[:, n, :] = x.T
    return PathEnsembleTrajectory(out, grid)


def forward_mean(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: Trajectory,
    ensemble: BrownianEnsemble | None = None,
) -> Trajectory:
    """Mean state trajectory, one single-column sweep.

    Without an ensemble, the exact expectation (driven by f0 alone); with one,
    the path average of ``iter_forward_paths`` over it, which by linearity is
    the sweep driven by the ensemble's mean Brownian values and increments.
    """
    terms = _data_terms(spec, system, grid, *_mean_brownian(grid, ensemble))
    x = l2_project(system, spec.x0)[:, None]
    return _single_column(_forward(system, grid, spec.gamma, x, control, terms), grid, system.n)


def control_response(
    system: FemSystem, grid: TimeGrid, control: Trajectory, gamma: float = 1.0
) -> Trajectory:
    """State response to the control alone (zero data, zero noise).

    By linearity the full mean state is ``base + control_response``, which
    the optimizer exploits to avoid re-simulating path ensembles.
    """
    sweep = _forward(system, grid, gamma, np.zeros((system.n, 1)), control)
    return _single_column(sweep, grid, system.n)


def mean_target_loads(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    ensemble: BrownianEnsemble | None = None,
) -> np.ndarray:
    """Load vectors of the mean tracking target at levels 1..N (row 0 zero):
    load(xd0), plus Wbar_n load(xd1) for the mean Brownian values of an ensemble."""
    w_bar, _ = _mean_brownian(grid, ensemble)
    loads = np.zeros((grid.N + 1, system.n))
    for n in range(1, grid.N + 1):
        t = float(grid.times[n])
        loads[n] = _load_at(system, spec.target.mean, t)
        if w_bar is not None:
            loads[n] += w_bar[0, n] * _load_at(system, spec.target.slope, t)
    return loads


def backward_adjoint_from_loads(
    system: FemSystem, grid: TimeGrid, gamma: float,
    x_levels: np.ndarray, target_loads: np.ndarray, mu: float,
) -> Trajectory:
    """Mean adjoint driven by the tracking misfit and the multiplier.

    Terminal value zero; the source at level n is
    M xbar^n - load(xbar_d(t_n)) + mu*load(1), with the target loads
    precomputed (see ``mean_target_loads``).  For deterministic controls
    this is the exact expectation of the conditional-expectation
    recursion, since the noise enters linearly.
    """
    source = _mass_rows(system, x_levels) - target_loads + mu * system.ones_load
    return _backward(system, grid, gamma, source)


def mtilde_solve(system: FemSystem, grid: TimeGrid, gamma: float = 1.0) -> Trajectory:
    """Backward auxiliary field with unit source and zero terminal value.

    Adding mu times this field to the constraint-free adjoint gives the
    full adjoint; it is also the direction of the projection step.
    """
    source = np.broadcast_to(system.ones_load, (grid.N + 1, system.n))
    return _backward(system, grid, gamma, source)


def qtilde_solve(
    system: FemSystem, grid: TimeGrid, mtilde: Trajectory, gamma: float = 1.0
) -> Trajectory:
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

    def evaluate(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.ndim == 0:
            return self.const + float(w) * self.slope
        return self.const[None, :] + w[:, None] * self.slope[None, :]


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
