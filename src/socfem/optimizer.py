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

An iteration does only the work its result needs: one backward adjoint
sweep, one forward state sweep, the multiplier mu, the step error (the
stopping rule) and the constraint integral.  A run starts from the zero
control, whose state is the data response ``base`` plus +0.0, so it costs
no sweep; k iterations cost 2k sweeps.  The returned mean adjoint costs
one more, run when ``GpResult.adjoint_mean`` is first read, so a
constraint table, which never reads it, never pays for it; until then the
result holds the sweep's inputs (the final state, the multiplier and the
target loads), not the workspace.  What only some callers read, such as
the tracking cost (``cost``) that ``solve`` writes per iteration, goes
through the optional observer, ``run(delta, observe)``, which is called
with each record and the live control and mean state; the projected
target that ``cost`` measures against is solved on its first call.

The loop keeps only the (N+1, n) tables it reads, and allocates none per
iteration.  The workspace holds four: Mtilde, Qtilde, the data response
``base`` and the target loads.  Each ``run`` owns three: the control
``u``, the mean state ``x`` and the next control ``u_next``.  An
iteration's adjoint sweep writes into ``u_next``; once it has staged its
source, x is dead, so rho*(alpha*u + y) is formed in ``x``, and the half step
over the adjoint in ``u_next``.  The projection solves the new mean state
into ``x`` and shifts the half step in place into the next control; the
step difference goes into the old control, which is then swapped with
``u_next``.  The sweeps' scratch is the ``FemSystem``'s
(``FemSystem.sweep_tables``): one (N, n) staging table, ``rows``, and a
bounded transposed pair (``fem.SweepTables``), built by the first set-up
sweep and shared by every sweep and delta run after it.  Once an
iteration's sweeps are done ``rows`` also stages the projection's two
shifts and the mass products of the step norm.  With the implicit-Euler
factor, that is the whole live set of a run: 4 + 3 + 1 tables, the
factor and at most 1 MiB of chunk scratch; no mass factor is kept
(``FemSystem.mass_solve``).  Nothing a run returns lives in the scratch.
The sweeps write into these tables, and every update is an ``out=`` ufunc
with the same operations in the same order as the plain expression, so
the bits are those of the expression.  Results therefore never share
memory with the workspace, with each other or with another run's results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import NumericalError
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
        if self.rho is not None and not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0.0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    mu: float
    step_error: float
    constraint_integral: float


@dataclass
class GpResult:
    """The loop's final iterate.

    ``adjoint`` is the mean adjoint at ``state_mean`` and ``mu``, or, as
    ``run`` returns it, the sweep that solves for it: ``adjoint_mean``
    runs that sweep on its first read and keeps the array in its place,
    so a caller that never reads the adjoint never pays for it.
    """

    control: np.ndarray
    mu: float
    records: list[IterationRecord]
    converged: bool
    state_mean: np.ndarray
    adjoint: np.ndarray | Callable[[], np.ndarray]

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def adjoint_mean(self) -> np.ndarray:
        if callable(self.adjoint):
            self.adjoint = self.adjoint()
        return self.adjoint


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
        raise NumericalError(
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

    @cached_property
    def target_proj(self) -> np.ndarray:
        """The L2 projection of the mean target at levels 1..N (row 0 zero).

        Only ``cost`` reads it, so it is solved on the first ``cost`` call.
        """
        proj = np.zeros_like(self.target_loads)
        proj[1:] = self.system.mass_solve(self.target_loads[1:].T).T
        return proj

    def state_mean(self, control: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``base + control_response(control)``, written into ``out`` when given."""
        resp = control_response(self.system, self.grid, control, self.spec.gamma, out=out)
        return np.add(self.base, resp, out=resp)

    def adjoint(self, x_mean: np.ndarray, mu: float, out: np.ndarray | None = None) -> np.ndarray:
        return backward_adjoint_from_loads(
            self.system, self.grid, self.spec.gamma, x_mean, self.target_loads, mu, out=out
        )

    def _mass_inner(self, levels: np.ndarray) -> float:
        """sum over rows l of levels[l] . M levels[l], for an (N, n) table.

        M levels is staged in the sweep rows, free once an iteration's
        sweeps are done, laid out (n, N) as levels by columns: the einsum
        sums in the order of that layout.
        """
        product = self.system.sweep_tables(len(levels)).rows.reshape(self.system.n, -1).T
        return np.einsum("ln,ln->", levels, self.system.mass_rows(levels, product))

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
        (which may be ``control`` itself) and ``x_out`` (N+1, n) when given
        and into new arrays otherwise.
        """
        N = self.grid.N
        x = self.state_mean(control, x_out)
        integral = constraint_integral(x, self.system, self.grid)
        mu = select_multiplier(integral, delta, self.rho, self.qtilde_integral)
        step = self.rho * mu
        # the shifts are staged in the sweep rows: Qtilde's level 0 and
        # Mtilde's level N are +0.0, so the rows they leave alone keep the
        # bits that subtracting step*(+0.0) gives
        shift = self.system.sweep_tables(N).rows
        np.subtract(x[1:], np.multiply(step, self.qtilde[1:], out=shift), out=x[1:])
        u = np.empty_like(self.base) if u_out is None else u_out
        u[N] = control[N]
        np.subtract(control[:N], np.multiply(step, self.mtilde[:N], out=shift), out=u[:N])
        return u, x, mu

    def run(self, delta: float, observe: Callable[..., None] | None = None) -> GpResult:
        """The loop at constraint level delta, from the zero control.

        ``observe(record, control, state_mean)``, when given, is called
        once per iteration, after its record is appended, with the new
        control and its mean state.  They are the loop's live tables, valid
        only during the call: an observer reads them or copies them, and
        never writes to them.

        Non-convergence within ``max_iter`` is reported through the
        result's ``converged`` flag, not raised; a non-finite iterate (a
        divergent step size) raises ``NumericalError``.
        """
        rho, alpha, grid, config = self.rho, self.spec.alpha, self.grid, self.config
        shape = (grid.N + 1, self.system.n)
        u = np.zeros(shape)
        # the zero control's response is +0.0 at every entry, so its mean
        # state is base + 0.0, without a sweep
        x = np.add(self.base, 0.0, out=np.empty(shape))
        # the adjoint, then the half step, then the next control
        u_next = np.empty(shape)
        records: list[IterationRecord] = []
        converged = False
        mu = 0.0

        for i in range(config.max_iter):
            y_tilde = self.adjoint(x, mu=0.0, out=u_next)
            # u_half = u - rho*(alpha*u + y_tilde), one operation at a time;
            # the adjoint has staged its source, so x is free until the
            # projection solves the new state into it
            gradient = np.multiply(alpha, u, out=x)
            gradient += y_tilde
            gradient *= rho
            u_half = np.subtract(u, gradient, out=y_tilde)
            u_new, x, mu = self.project(u_half, delta, u_half, x)
            # the old control is read for the last time here
            step_error = self.step_norm(np.subtract(u_new, u, out=u))
            integral = constraint_integral(x, self.system, grid)
            if not all(map(math.isfinite, (mu, step_error, integral))):
                raise NumericalError(
                    f"gradient projection diverged at iteration {i}: mu={mu!r} "
                    f"step_error={step_error!r} integral={integral!r}"
                )
            records.append(IterationRecord(i, mu, step_error, integral))
            if observe is not None:
                observe(records[-1], u_new, x)
            u, u_next = u_new, u
            if step_error <= config.eps0:
                converged = True
                break

        # the final adjoint is swept when it is first read; the result holds
        # the sweep's inputs until then, not the workspace
        adjoint = partial(
            backward_adjoint_from_loads, self.system, grid, self.spec.gamma,
            x, self.target_loads, mu,
        )
        return GpResult(
            control=u,
            mu=mu,
            records=records,
            converged=converged,
            state_mean=x,
            adjoint=adjoint,
        )

