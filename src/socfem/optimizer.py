"""Gradient projection for the integral state constraint.

Each iteration takes a gradient step on the control, re-solves the mean
state, and projects back onto the feasible set by subtracting a multiple
of the auxiliary backward field.  The multiplier is chosen so that the
updated mean state's space-time integral lands exactly on the constraint
level whenever the half step is infeasible; feasible half steps leave the
control untouched (multiplier zero).

Expectations are evaluated either in closed form (mean-field, exact for
additive noise and deterministic controls), when no ensemble is given, or
as path averages over a fixed Brownian ensemble (Monte Carlo), when one is.
Both reduce to the same affine iteration: the state responses to data and
control separate, so the data response is computed once up front, not once
per iteration.  The scheme is linear and the data affine in W, so the path
average is itself one mean sweep driven by the ensemble's mean Brownian
values and increments; the mean-field estimator is the case where both
means are zero.

A ``GradientProjection`` workspace is built for one problem, grid and
ensemble with one ``OptimizerConfig`` (the step size rho, the tolerance
eps0 and the iteration cap); ``run(delta)`` runs the loop at one
constraint level, which is the only setting a run takes.  So one workspace
serves every delta, and each setting has one home.

The loop allocates no table per iteration.  The sweeps' scratch is the
``FemSystem``'s (``FemSystem.sweep_tables``), built by the first set-up
sweep and shared by every sweep and delta run after it; nothing a run
returns lives there.  Each ``run`` owns its iterates, (N+1, n) arrays: the
control and mean state, the next control (swapped with the control each
iteration) and one scratch table.  The mean state is projected in place:
the gradient step's adjoint sweep has copied what it reads of the old one
into the sweep tables.  The returned mean adjoint goes into the
next-control table, free once the loop ends.
The sweeps write into these tables, and every update is an ``out=`` ufunc
with the same operations in the same order as the plain expression, so
the bits are those of the expression.  Results therefore never share
memory with the workspace, with each other or with another run's results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError
from .fem import FemSystem
from .grid import TimeGrid
from .paths import BrownianEnsemble
from .spde import (
    ProblemSpec,
    backward_adjoint_from_loads,
    control_response,
    forward_mean,
    mean_target_loads,
    mtilde_solve,
    qtilde_solve,
)

@dataclass(frozen=True)
class OptimizerConfig:
    """Loop parameters; ``rho=None`` selects 0.9/(alpha + e^T)."""

    rho: float | None = None
    eps0: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if self.rho is not None and not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.eps0 > 0.0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    mu: float
    step_error: float
    constraint_integral: float
    cost: float


@dataclass
class GpResult:
    control: np.ndarray
    mu: float
    records: list[IterationRecord]
    converged: bool
    state_mean: np.ndarray
    adjoint_mean: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.records)


def constraint_integral(x_mean: np.ndarray, system: FemSystem, grid: TimeGrid) -> float:
    """Space-time integral of the mean state, right-endpoint rule in time."""
    return float(grid.tau * (x_mean[1:] @ system.ones_load).sum())


def select_multiplier(
    integral_half: float, delta: float, rho: float, qtilde_integral: float
) -> float:
    """Multiplier that pins the projected state's integral to delta.

    mu = max(integral_half - delta, 0) / (rho * qtilde_integral); the
    denominator is positive on any usable grid by the extremum principle.
    """
    denom = rho * qtilde_integral
    if not denom > 0.0:
        raise InvalidStateError(
            f"rho * qtilde_integral = {denom} must be positive for the projection"
        )
    return max(integral_half - delta, 0.0) / denom


def contraction_certificate(alpha: float, T: float, rho: float) -> float | None:
    """Certified contraction factor for the iteration, or None if rejected.

    Returns 1 - rho*alpha for rho <= 1/(alpha + e^T) and sqrt(F(rho)) for
    1/(alpha + e^T) < rho < 2/(alpha + 2 e^T) with
    F(rho) = rho^2 (alpha+1)(alpha+2 e^T) - rho (2 alpha + 2) + 1.
    """
    if not rho > 0.0:
        return None
    eT = math.exp(T)
    if rho <= 1.0 / (alpha + eT):
        lam = 1.0 - rho * alpha
        return lam if 0.0 < lam < 1.0 else None
    if rho < 2.0 / (alpha + 2.0 * eT):
        f = rho * rho * (alpha + 1.0) * (alpha + 2.0 * eT) - rho * (2.0 * alpha + 2.0) + 1.0
        if 0.0 < f < 1.0:
            return math.sqrt(f)
    return None


class GradientProjection:
    """Shared workspace for one problem, grid, loop configuration and ensemble.

    The control-independent pieces (auxiliary fields, data response, target
    loads) are computed once; ``run`` then iterates, and ``project`` exposes
    the projection alone for property tests and reuse.  Both take rho from
    the workspace's ``config`` (its default 0.9/(alpha + e^T) when
    ``config.rho`` is None), and ``run`` takes eps0 and max_iter from it.
    None of them depends on the constraint level: delta is an argument of
    ``project`` and ``run``, not workspace state, so one workspace serves
    every delta.  With an ``ensemble``, expectations are its path averages
    (Monte Carlo); without one, they are exact (mean-field).
    """

    def __init__(
        self,
        spec: ProblemSpec,
        system: FemSystem,
        grid: TimeGrid,
        config: OptimizerConfig = OptimizerConfig(),
        ensemble: BrownianEnsemble | None = None,
    ):
        self.spec = spec
        self.system = system
        self.grid = grid
        self.config = config
        rho = config.rho
        self.rho = 0.9 / (spec.alpha + math.exp(spec.T)) if rho is None else float(rho)

        self.mtilde = mtilde_solve(system, grid, spec.gamma)
        self.qtilde = qtilde_solve(system, grid, self.mtilde, spec.gamma)
        self.qtilde_integral = constraint_integral(self.qtilde, system, grid)

        self.base = forward_mean(spec, system, grid, np.zeros((grid.N + 1, system.n)), ensemble)
        self.target_loads = mean_target_loads(spec, system, grid, ensemble)
        self.target_proj = np.zeros_like(self.target_loads)
        self.target_proj[1:] = system.mass_solve(self.target_loads[1:].T).T

    def state_mean(self, control: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``base + control_response(control)``, written into ``out`` when given."""
        resp = control_response(self.system, self.grid, control, self.spec.gamma, out=out)
        return np.add(self.base, resp, out=resp)

    def adjoint(self, x_mean: np.ndarray, mu: float, out: np.ndarray | None = None) -> np.ndarray:
        return backward_adjoint_from_loads(
            self.system, self.grid, self.spec.gamma, x_mean, self.target_loads, mu, out=out
        )

    def _mass_inner(self, levels: np.ndarray) -> float:
        """sum over rows l of levels[l] . M levels[l], for an (N, n) table."""
        return np.einsum("ln,ln->", levels, self.system.mass_rows(levels))

    def cost(self, x_mean: np.ndarray, control: np.ndarray, scratch: np.ndarray) -> float:
        """Discrete tracking cost of the mean fields; the misfit goes to ``scratch`` (N+1, n).

        The noise-variance part of the expected cost is control-independent
        for additive noise and is not included.
        """
        misfit = np.subtract(x_mean[1:], self.target_proj[1:], out=scratch[: self.grid.N])
        track = self._mass_inner(misfit)
        reg = self._mass_inner(control[: self.grid.N])
        return float(0.5 * self.grid.tau * (track + self.spec.alpha * reg))

    def step_norm(self, diff_levels: np.ndarray) -> float:
        """tau-weighted L2(0,T; L2) norm of a control difference."""
        return float(np.sqrt(self.grid.tau * self._mass_inner(diff_levels[: self.grid.N])))

    def project(
        self, control: np.ndarray, delta: float,
        u_out: np.ndarray | None = None, x_out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Project a control onto the feasible set of constraint level delta.

        Solves the mean state, selects the multiplier and subtracts
        rho*mu times the auxiliary backward field.  Returns the projected
        control, its mean state and the multiplier, written into ``u_out``
        and ``x_out`` (N+1, n) when given and into new arrays otherwise.
        """
        x = self.state_mean(control, x_out)
        integral = constraint_integral(x, self.system, self.grid)
        mu = select_multiplier(integral, delta, self.rho, self.qtilde_integral)
        step = self.rho * mu
        # u_out holds step*qtilde until x is projected, then step*mtilde
        shift = np.multiply(step, self.qtilde, out=u_out)
        np.subtract(x, shift, out=x)
        np.multiply(step, self.mtilde, out=shift)
        return np.subtract(control, shift, out=shift), x, mu

    def run(self, delta: float) -> GpResult:
        """The loop at constraint level delta, from the zero control.

        Non-convergence within ``max_iter`` is reported through the
        result's ``converged`` flag, not raised; a non-finite iterate (a
        divergent step size) raises ``NumericalError``.
        """
        rho, alpha, grid, config = self.rho, self.spec.alpha, self.grid, self.config
        shape = (grid.N + 1, self.system.n)
        u = np.zeros(shape)
        x = self.state_mean(u, np.empty(shape))
        # the next control and one scratch table, owned by this run
        u_next, scratch = np.empty(shape), np.empty(shape)
        records: list[IterationRecord] = []
        converged = False
        mu = 0.0

        for i in range(config.max_iter):
            y_tilde = self.adjoint(x, mu=0.0, out=u_next)
            # u_half = u - rho*(alpha*u + y_tilde), one operation at a time
            u_half = np.multiply(alpha, u, out=scratch)
            u_half += y_tilde
            u_half *= rho
            np.subtract(u, u_half, out=u_half)
            # the adjoint sweep is done with x, so the projection overwrites it
            u_new, x, mu = self.project(u_half, delta, u_next, x)
            step_error = self.step_norm(np.subtract(u_new, u, out=scratch))
            integral = constraint_integral(x, self.system, grid)
            cost = self.cost(x, u_new, scratch)
            if not all(map(math.isfinite, (mu, step_error, integral, cost))):
                raise NumericalError(
                    f"gradient projection diverged at iteration {i}: mu={mu!r} "
                    f"step_error={step_error!r} integral={integral!r} cost={cost!r}"
                )
            records.append(IterationRecord(i, mu, step_error, integral, cost))
            u, u_next = u_new, u
            if step_error <= config.eps0:
                converged = True
                break

        return GpResult(
            control=u,
            mu=mu,
            records=records,
            converged=converged,
            state_mean=x,
            adjoint_mean=self.adjoint(x, mu, out=u_next),
        )

