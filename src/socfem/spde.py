"""Time-stepping solvers for the controlled stochastic heat equation.

All solvers share one implicit-Euler scheme on interior P1 coefficients:

    (M + tau*gamma*A) x^{n+1} = M x^n + tau*load(f(t_n)) + tau*M u^n
                                + dW_{n+1} * load(sigma(t_n))

Controls, forcing and the noise coefficient are evaluated at the left time
point; states and tracking targets at the right one.  Because the noise is
additive with zero-mean increments and the scheme is linear, expectations
of state and adjoint satisfy the noise-free recursions exactly; the
``*_mean`` solvers run those recursions with user-supplied mean
coefficients.  The backward solvers for the mean adjoint and the auxiliary
constraint systems reuse the same factorized operator.

Conditional expectations of the martingale part (the Z process) are
estimated across simulated paths by least-squares regression on the basis
{1, W_{t_n}}, with a variance-reducing centering step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .errors import NumericalError
from .fem import FemSystem, load_from_values, load_vector
from .grid import TimeGrid
from .paths import BrownianEnsemble

SpaceFn = Callable[[np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[float, np.ndarray], np.ndarray]
NoisyFn = Callable[[float, np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficient data for one control problem.

    Space-dependent callables receive points of shape (m, dim) and return
    values of shape (m,).  ``forcing`` and ``target`` additionally take the
    Brownian value w, an array of shape (paths, 1) in path sweeps; their
    result must broadcast to (paths, m).  ``mean_forcing`` / ``mean_target``
    are the expectations of ``forcing`` / ``target`` over W_t; for data
    that is affine in w they are the w=0 slices.
    """

    alpha: float
    delta: float
    T: float
    x0: SpaceFn
    sigma: SpaceTimeFn
    forcing: NoisyFn
    target: NoisyFn
    gamma: float = 1.0
    mean_forcing: SpaceTimeFn | None = None
    mean_target: SpaceTimeFn | None = None

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

    @property
    def paths(self) -> int:
        return self.values.shape[0]

    def mean(self) -> Trajectory:
        return Trajectory(np.mean(self.values, axis=0), self.grid)


def _check_alignment(grid: TimeGrid, control: Trajectory, ensemble: BrownianEnsemble | None):
    if control.grid.N != grid.N or abs(control.grid.tau - grid.tau) > 1e-12 * grid.tau:
        raise ValueError("control trajectory is not aligned with the time grid")
    if ensemble is not None:
        if ensemble.steps != grid.N or abs(ensemble.tau - grid.tau) > 1e-12 * grid.tau:
            raise ValueError("ensemble is not aligned with the time grid")


def eval_pathwise(func, t: float, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate f(t, x, w) for every path, shape (paths, n_points).

    One call with w of shape (paths, 1); the result must broadcast to
    (paths, n_points), so w-independent closures may return (n_points,).
    """
    shape = (w.shape[0], pts.shape[0])
    vals = np.asarray(func(t, pts, w[:, None]), dtype=float)
    try:
        return np.broadcast_to(vals, shape)
    except ValueError:
        raise ValueError(
            f"closure returned shape {vals.shape}, which does not broadcast to "
            f"(paths, points) = {shape}"
        ) from None


def initial_state(spec: ProblemSpec, system: FemSystem) -> np.ndarray:
    """L2 projection of the initial datum onto the interior P1 space."""
    return system.mass_solve(load_vector(system, spec.x0))


def iter_forward_paths(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    control: Trajectory,
    ensemble: BrownianEnsemble,
) -> Iterator[tuple[int, np.ndarray]]:
    """Advance all paths together, yielding (level, states (n_interior, paths)).

    Level 0 is the projected initial state.  Yielded arrays are owned by
    the sweep; consumers must copy what they keep.
    """
    _check_alignment(grid, control, ensemble)
    tau = grid.tau
    solver = system.euler_solver(tau, spec.gamma)
    mass = system.mass
    qpts = system.quad_points

    x = np.tile(initial_state(spec, system)[:, None], (1, ensemble.paths))
    yield 0, x
    for n in range(grid.N):
        t = float(grid.times[n])
        w = ensemble.brownian_at(n)
        f_loads = load_from_values(system, eval_pathwise(spec.forcing, t, qpts, w))
        sigma_load = load_vector(system, lambda p, _t=t: spec.sigma(_t, p))
        rhs = mass @ x
        rhs += tau * (mass @ control.values[n])[:, None]
        rhs += tau * f_loads.T
        rhs += sigma_load[:, None] * ensemble.increments[:, n][None, :]
        x = solver.solve(rhs)
        yield n + 1, x


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
    spec: ProblemSpec, system: FemSystem, grid: TimeGrid, control: Trajectory
) -> Trajectory:
    """Mean state trajectory: the noise-free scheme driven by mean forcing.

    Runs the path sweep on a single all-zero-increment path so the solver
    calls match ``forward_paths`` on a degenerate ensemble bit for bit.
    """
    if spec.mean_forcing is None:
        raise ValueError("ProblemSpec.mean_forcing is required for mean-field solves")
    mean_spec = replace(
        spec, forcing=lambda t, pts, w: np.broadcast_to(spec.mean_forcing(t, pts), pts.shape[:1])
    )
    zero = BrownianEnsemble(
        paths=1, steps=grid.N, tau=grid.tau, seed=0, increments=np.zeros((1, grid.N))
    )
    out = np.empty((grid.N + 1, system.n))
    for n, x in iter_forward_paths(mean_spec, system, grid, control, zero):
        out[n] = x[:, 0]
    return Trajectory(out, grid)


def control_response(
    system: FemSystem, grid: TimeGrid, control: Trajectory, gamma: float = 1.0
) -> Trajectory:
    """State response to the control alone (zero data, zero noise).

    By linearity the full mean state is ``base + control_response``, which
    the optimizer exploits to avoid re-simulating path ensembles.
    """
    _check_alignment(grid, control, None)
    tau = grid.tau
    solver = system.euler_solver(tau, gamma)
    mass = system.mass
    out = np.zeros((grid.N + 1, system.n))
    x = np.zeros(system.n)
    for n in range(grid.N):
        x = solver.solve(mass @ x + tau * (mass @ control.values[n]))
        out[n + 1] = x
    return Trajectory(out, grid)


def mean_target_loads(spec: ProblemSpec, system: FemSystem, grid: TimeGrid) -> np.ndarray:
    """Load vectors of the mean tracking target at levels 1..N (row 0 zero)."""
    if spec.mean_target is None:
        raise ValueError("ProblemSpec.mean_target is required for mean-field solves")
    loads = np.zeros((grid.N + 1, system.n))
    for n in range(1, grid.N + 1):
        t = float(grid.times[n])
        loads[n] = load_vector(system, lambda p, _t=t: spec.mean_target(_t, p))
    return loads


def backward_adjoint_from_loads(
    system: FemSystem,
    grid: TimeGrid,
    gamma: float,
    x_levels: np.ndarray,
    target_loads: np.ndarray,
    mu: float,
) -> Trajectory:
    """Backward mean adjoint with a precomputed target-load table."""
    tau = grid.tau
    solver = system.euler_solver(tau, gamma)
    mass = system.mass
    ones = system.ones_load
    out = np.zeros((grid.N + 1, system.n))
    y = np.zeros(system.n)
    for n in range(grid.N - 1, -1, -1):
        rhs = mass @ y + tau * (mass @ x_levels[n + 1] - target_loads[n + 1] + mu * ones)
        y = solver.solve(rhs)
        out[n] = y
    return Trajectory(out, grid)


def backward_mean_adjoint(
    spec: ProblemSpec,
    system: FemSystem,
    grid: TimeGrid,
    x_mean: Trajectory,
    mu: float = 0.0,
) -> Trajectory:
    """Mean adjoint trajectory driven by the tracking misfit and multiplier.

    Terminal value zero; step n solves

        (M + tau*gamma*A) y^n = M y^{n+1}
                                + tau*(M xbar^{n+1} - load(xbar_d(t_{n+1})) + mu*load(1)).

    For deterministic controls this is the exact expectation of the
    conditional-expectation recursion, since the noise enters linearly.
    """
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    _check_alignment(grid, x_mean, None)
    loads = mean_target_loads(spec, system, grid)
    return backward_adjoint_from_loads(system, grid, spec.gamma, x_mean.values, loads, mu)


def mtilde_solve(system: FemSystem, grid: TimeGrid, gamma: float = 1.0) -> Trajectory:
    """Backward auxiliary field with unit source and zero terminal value.

    Adding mu times this field to the constraint-free adjoint gives the
    full adjoint; it is also the direction of the projection step.
    """
    tau = grid.tau
    solver = system.euler_solver(tau, gamma)
    mass = system.mass
    src = tau * system.ones_load
    out = np.zeros((grid.N + 1, system.n))
    m = np.zeros(system.n)
    for n in range(grid.N - 1, -1, -1):
        m = solver.solve(mass @ m + src)
        out[n] = m
    return Trajectory(out, grid)


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
