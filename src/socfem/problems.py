"""Built-in manufactured problems with known optimal solutions.

Both problems are designed so that the expected optimality system holds
exactly: the mean state solves the mean forward equation, the (mean)
adjoint equals -alpha times the control, and the constraint level delta is
the space-time integral of the exact mean state.  All Brownian dependence
is affine, so the forcing, the target and the exact state are written as
``AffineInW`` pairs (w=0 slice, w-slope); the w=0 slices are the means.

What the exact solution implies is derived from it, not written again,
once for both builders (``_manufactured``): both problems take alpha = 1
and T = 1; the noise is additive, so the noise coefficient sigma is the
w-slope of the exact state X = x0 + W x1 and the initial state is X at
t = 0; the exact mean adjoint is -alpha times the control (``exact_y``).
Each builder writes only the control, the exact state, the forcing and
the target, and the problem's own constants.

The 1D problem's tracking target contains one ambiguous term that can be
read with or without the noise amplitude multiplying the Brownian value.
Both readings produce the same mean problem; they differ only in the
pathwise fluctuation of the target.  Both are kept available, and
``verify_manufactured`` reports the fluctuation mismatch of each so the
selection is recorded rather than silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .paths import DEFAULT_SEED
from .spde import AffineInW, ProblemSpec, at_w

PI = math.pi
T = 1.0  # the horizon of both built-in problems
DEFAULT_SAMPLES = 1000  # the (t, x, w) triples ``verify_manufactured`` checks


@dataclass(frozen=True)
class ManufacturedProblem:
    """A ProblemSpec together with its exact solution fields.

    ``delta`` is the exact constraint level, the space-time integral of
    the exact mean state; a run passes it (or the discrete level of
    ``analysis.discrete_constraint_level``) to ``GradientProjection.run``.
    """

    name: str
    spec: ProblemSpec
    exact_u: callable  # (t, pts) -> values
    exact_x: AffineInW
    exact_mu: float
    delta: float
    domain: tuple[tuple[float, float], ...]
    xd_reading: str | None = None
    xd_variants: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.domain)

    def exact_y(self, t, pts):
        """The exact mean adjoint at (t, pts): -alpha * exact_u."""
        return -self.spec.alpha * self.exact_u(t, pts)


def _per_point_set(fn):
    """``fn(pts)`` that keeps its values for the last read-only points array it saw.

    A problem's spatial factor is read at the same point sets on every
    level: ``FemSystem.quad_points`` and ``Mesh.interior_nodes``, which are
    read-only and never change.  So it runs once per such set, and a
    repeated call returns the kept values, read-only, the same bits.
    Writable points are evaluated on every call.
    """
    last = (None, None)

    def per_set(pts):
        nonlocal last
        seen, values = last
        if pts is seen:
            return values
        values = fn(pts)
        if not pts.flags.writeable:
            values.flags.writeable = False
            last = pts, values
        return values

    return per_set


def _manufactured(
    name, domain, exact_u, exact_x: AffineInW, forcing: AffineInW, target: AffineInW,
    mu: float, delta: float, gamma: float = 1.0, **reading,
) -> ManufacturedProblem:
    """A built-in problem from its exact solution and data, alpha = 1 and
    horizon ``T``: x0 is the exact state at t = 0 and sigma its w-slope.

    ``reading`` holds the target reading fields of ``ManufacturedProblem``
    (``xd_reading``, ``xd_variants``), which example1 alone has.
    """
    spec = ProblemSpec(
        alpha=1.0, T=T, x0=lambda pts: exact_x.mean(0.0, pts), sigma=exact_x.slope,
        forcing=forcing, target=target, gamma=gamma,
    )
    return ManufacturedProblem(name, spec, exact_u, exact_x, mu, delta, domain, **reading)


def example1(beta: float = 0.1, mu: float = 1.0, xd_reading: str = "auto") -> ManufacturedProblem:
    """1D problem on [0, 1] with T = 1, alpha = 1, unit diffusion.

    Control t(1-t)sin(pi x), state (t + beta W_t) sin(pi x), constraint
    level 1/pi.  ``xd_reading`` picks the Brownian coefficient inside the
    target's 2(t + . W_t) term: 'beta_w' uses beta, 'plain_w' uses 1,
    'auto' selects the reading with the smaller pathwise target-fluctuation
    mismatch (beta_w).
    """

    @_per_point_set
    def g(pts):
        return np.sin(PI * pts[..., 0])

    def exact_u(t, pts):
        return t * (T - t) * g(pts)

    # X = (t + beta w) g
    exact_x = AffineInW(mean=lambda t, pts: t * g(pts), slope=lambda t, pts: beta * g(pts))
    # f = g (1 + t(t - T) + pi^2 (t + beta w))
    forcing = AffineInW(
        mean=lambda t, pts: g(pts) * (1.0 + t * (t - T) + PI**2 * t),
        slope=lambda t, pts: g(pts) * (PI**2 * beta),
    )

    def make_target(c):
        # X_d = g ((t - T) + 2 (t + c w) - pi^2 (t - T)(t + beta w)) + mu
        return AffineInW(
            mean=lambda t, pts: g(pts) * ((t - T) + 2.0 * t - PI**2 * (t - T) * t) + mu,
            slope=lambda t, pts: g(pts) * (2.0 * c - PI**2 * (t - T) * beta),
        )

    variants = {"beta_w": make_target(beta), "plain_w": make_target(1.0)}
    if xd_reading == "auto":
        xd_reading = _select_reading(exact_x, variants)
    if xd_reading not in variants:
        raise ValueError(f"xd_reading must be 'auto', 'beta_w' or 'plain_w', got {xd_reading!r}")
    target = variants[xd_reading]

    return _manufactured(
        "example1", ((0.0, 1.0),), exact_u, exact_x, forcing, target, mu, 1.0 / PI,
        xd_reading=xd_reading, xd_variants=variants,
    )


def example2(
    gamma: float = 0.2, lam: float = 0.2, beta: float = 0.5, mu: float = 0.8
) -> ManufacturedProblem:
    """2D problem on the unit square with T = 1, alpha = 1, diffusion gamma.

    State (1 + lam t + beta W_t) sin(pi x1) sin(pi x2) (1+t)^2; constraint
    level (17 lam + 28) / (3 pi^2).
    """

    @_per_point_set
    def g(pts):
        return np.sin(PI * pts[..., 0]) * np.sin(PI * pts[..., 1])

    # the state amplitude a = 1 + lam t + beta w is affine in w; a0 is its mean
    def a0(t):
        return 1.0 + lam * t

    def exact_u(t, pts):
        return (T - t) * (1.0 + lam * t) * (1.0 + t) ** 2 * g(pts)

    # X = a (1 + t)^2 g
    exact_x = AffineInW(
        mean=lambda t, pts: a0(t) * (1.0 + t) ** 2 * g(pts),
        slope=lambda t, pts: beta * (1.0 + t) ** 2 * g(pts),
    )
    # f = (1 + t)^2 g (2 gamma pi^2 a + (t - T)(1 + lam t) + 2 a / (1 + t) + lam)
    forcing = AffineInW(
        mean=lambda t, pts: (1.0 + t) ** 2 * g(pts) * (
            2.0 * gamma * PI**2 * a0(t) + (t - T) * (1.0 + lam * t) + 2.0 * a0(t) / (1.0 + t) + lam
        ),
        slope=lambda t, pts: (1.0 + t) ** 2 * g(pts) * (
            2.0 * gamma * PI**2 * beta + 2.0 * beta / (1.0 + t)
        ),
    )

    # X_d = (1 + t)^2 g (a c + lam (t - T)) + mu, c = 2 gamma pi^2 (T - t) + 2 + 2 (t - T)/(1 + t)
    def c(t):
        return 2.0 * gamma * PI**2 * (T - t) + 2.0 + 2.0 * (t - T) / (1.0 + t)

    target = AffineInW(
        mean=lambda t, pts: (1.0 + t) ** 2 * g(pts) * (a0(t) * c(t) + lam * (t - T)) + mu,
        slope=lambda t, pts: (1.0 + t) ** 2 * g(pts) * (beta * c(t)),
    )

    return _manufactured(
        "example2", ((0.0, 1.0), (0.0, 1.0)), exact_u, exact_x, forcing, target, mu,
        (17.0 * lam + 28.0) / (3.0 * PI**2), gamma=gamma,
    )


BY_NAME = {"example1": example1, "example2": example2}


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the manufactured identities at random sample points.

    ``state_residual`` and ``adjoint_mean_residual`` are the drift
    residuals of the state equation (pathwise in w) and the mean adjoint
    equation; both should sit at the finite-difference floor, well below
    1e-8.  ``target_w_mismatch`` maps each available target reading to the
    pathwise fluctuation left in the adjoint source; it is nonzero for
    every reading (the exact solution is a mean-sense solution) and is
    reported so the selected reading is an explicit, recorded choice.
    """

    problem: str
    samples: int
    state_residual: float
    noise_mismatch: float
    adjoint_mean_residual: float
    optimality_residual: float
    delta_error: float
    selected_reading: str | None
    target_w_mismatch: dict


def verify_manufactured(
    problem: ManufacturedProblem, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Numerically check the manufactured identities; report max residuals.

    Checks, at random (t, x, w) triples inside the domain:
      - state drift: d/dt X = gamma*Lap(X) + f + U, pathwise in w;
      - noise: the w-slope of X equals sigma;
      - mean adjoint drift: d/dt y = -gamma*Lap(y) - (xbar - xbar_d + mu);
      - optimality: y + alpha*u = 0;
      - delta: high-order quadrature of the exact mean state integral.
    Report-only; nothing is raised for large residuals.  ``samples`` must
    be positive, since a report of no samples would read as a clean pass.

    The built-in problems meet the noise and optimality identities by
    construction: their sigma is the w-slope of the exact state and their
    ``exact_y`` is -alpha * exact_u, so both residuals read 0.0.  The
    noise check still tests a spec a caller builds, say with
    ``replace(problem.spec, sigma=...)``.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    spec = problem.spec
    rng = default_rng(seed)
    lo = np.array([d[0] for d in problem.domain])
    hi = np.array([d[1] for d in problem.domain])
    pad = 0.05 * (hi - lo)
    ts = rng.uniform(0.02 * spec.T, 0.98 * spec.T, samples)
    xs = rng.uniform(lo + pad, hi - pad, (samples, problem.dim))
    ws = rng.uniform(-2.0, 2.0, samples)

    state_res = 0.0
    noise_res = 0.0
    adj_res = 0.0
    opt_res = 0.0
    for t, x, w in zip(ts, xs, ws):
        pt = x.reshape(1, -1)
        state = _at_w(problem.exact_x, w)
        dxdt = _ddt(lambda s: state(s, pt), t)
        lap_x = _laplacian(lambda p: state(t, p), pt)
        f = _at_w(spec.forcing, w)(t, pt)
        u = problem.exact_u(t, pt)
        state_res = max(state_res, float(abs(dxdt - spec.gamma * lap_x - f - u)[0]))

        slope = problem.exact_x.slope(t, pt)
        noise_res = max(noise_res, float(abs(slope - spec.sigma(t, pt))[0]))

        dydt = _ddt(lambda s: problem.exact_y(s, pt), t)
        lap_y = _laplacian(lambda p: problem.exact_y(t, p), pt)
        source = problem.exact_x.mean(t, pt) - spec.target.mean(t, pt) + problem.exact_mu
        adj_res = max(adj_res, float(abs(dydt + spec.gamma * lap_y + source)[0]))

        opt_res = max(opt_res, float(abs(problem.exact_y(t, pt) + spec.alpha * u)[0]))

    w_mismatch = {
        reading: _target_w_mismatch(problem.exact_x, tgt, ts, xs)
        for reading, tgt in (problem.xd_variants or {problem.xd_reading or "default": spec.target}).items()
    }
    delta_err = abs(_mean_state_integral(problem) - problem.delta)

    return VerificationReport(
        problem=problem.name,
        samples=samples,
        state_residual=state_res,
        noise_mismatch=noise_res,
        adjoint_mean_residual=adj_res,
        optimality_residual=opt_res,
        delta_error=float(delta_err),
        selected_reading=problem.xd_reading,
        target_w_mismatch=w_mismatch,
    )


def _at_w(datum: AffineInW, w: float):
    """The datum at one Brownian value, as a (t, pts) callable."""
    return lambda t, pts: at_w(datum.table(t, pts), np.array([1.0, w]))


def _select_reading(exact_x: AffineInW, variants: dict) -> str:
    """Pick the 1D target reading with the smallest pathwise fluctuation gap."""
    ts = np.repeat(np.linspace(0.05, 0.95, 7), 5)  # the 7 x 5 (t, x) grid, t outer
    xs = np.tile(np.linspace(0.1, 0.9, 5), 7).reshape(-1, 1)
    scores = {
        reading: _target_w_mismatch(exact_x, tgt, ts, xs)
        for reading, tgt in variants.items()
    }
    return min(scores, key=scores.get)


def _target_w_mismatch(exact_x: AffineInW, target: AffineInW, ts, xs) -> float:
    """Max |w-slope of (X - X_d)| over the (t, x) pairs of ``zip(ts, xs)``: the
    source fluctuation that a deterministic adjoint cannot absorb."""
    gaps = (exact_x.slope(t, x[None]) - target.slope(t, x[None]) for t, x in zip(ts, xs))
    return max((float(abs(gap)[0]) for gap in gaps), default=0.0)


def _mean_state_integral(problem: ManufacturedProblem, order: int = 48) -> float:
    """Gauss-Legendre quadrature of the exact mean state over [0,T] x D."""
    spec = problem.spec
    tn, tw = leggauss(order)
    t_nodes = 0.5 * spec.T * (tn + 1.0)
    t_weights = 0.5 * spec.T * tw

    # the tensor rule over the domain's axes, first axis slowest
    axes = [0.5 * (hi - lo) * (tn + 1.0) + lo for lo, hi in problem.domain]
    weights = [0.5 * (hi - lo) * tw for lo, hi in problem.domain]
    pts = np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])
    wts = np.prod(np.meshgrid(*weights, indexing="ij"), axis=0).ravel()

    total = 0.0
    for t, wt in zip(t_nodes, t_weights):
        total += wt * float(wts @ problem.exact_x.mean(t, pts))
    return total


def _ddt(fn, t: float, h: float = 1e-5) -> np.ndarray:
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def _laplacian(fn, pt: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Fourth-order central Laplacian; error ~ f^(6) h^4 / 90."""
    total = np.zeros(pt.shape[0])
    for d in range(pt.shape[1]):
        shifts = []
        for k in (-2, -1, 0, 1, 2):
            q = pt.copy()
            q[:, d] += k * h
            shifts.append(np.asarray(fn(q), dtype=float))
        total += (
            -shifts[0] + 16.0 * shifts[1] - 30.0 * shifts[2] + 16.0 * shifts[3] - shifts[4]
        ) / (12.0 * h * h)
    return total
