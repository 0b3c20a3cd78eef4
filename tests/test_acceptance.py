"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy criteria (3, 4, 5) simulate 2000-path
ensembles and keep well under their runtime budgets on a laptop.
"""

import numpy as np
import pytest
from dataclasses import replace

from socfem import (
    AffineInW,
    OptimizerConfig,
    ProblemSpec,
    Resolution,
    assemble,
    constraint_table,
    contraction_certificate,
    convergence_study,
    example1,
    example2,
    fit_order,
    forward_mean,
    lsmc_z_estimate,
    make_interval_mesh,
    make_rectangle_mesh,
    make_time_grid,
    mtilde_solve,
    qtilde_solve,
    sample,
    verify_manufactured,
)
from socfem.analysis import orders_from_reports, setup
from socfem.fem import load_vector
from socfem.optimizer import GradientProjection

from helpers import path_states_at, scipy_csr


def _report(criterion: str, violations: list, details: str) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"\ncriterion {criterion}: {status} ({details})")
    assert not violations, f"criterion {criterion}: " + "; ".join(violations)


def test_criterion_1_fem_oracles():
    system = assemble(make_interval_mesh(0, 1, 4))
    m = scipy_csr(system.mass).toarray()
    a = scipy_csr(system.stiffness).toarray()
    expected_m = np.array([[1 / 6, 1 / 24, 0], [1 / 24, 1 / 6, 1 / 24], [0, 1 / 24, 1 / 6]])
    expected_a = np.array([[8.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 8.0]])
    sys_half = assemble(make_interval_mesh(0, 1, 2))
    x = sys_half.euler_solver(0.5).solve(np.array([1 / 3]))

    violations = []
    if np.abs(m - expected_m).max() > 1e-12:
        violations.append(f"mass mismatch {np.abs(m - expected_m).max():.2e}")
    if np.abs(a - expected_a).max() > 1e-12:
        violations.append(f"stiffness mismatch {np.abs(a - expected_a).max():.2e}")
    if abs(x[0] - 1 / 7) > 1e-12:
        violations.append(f"implicit step {x[0]!r} != 1/7")
    _report("1", violations, "mass/stiffness closed forms and x1 = 1/7")


def _heat_error(cells: int, steps: int) -> float:
    mesh = make_interval_mesh(0, 1, cells)
    system = assemble(mesh)
    grid = make_time_grid(1.0, steps)
    zero = AffineInW(lambda t, p: np.zeros(p.shape[0]), lambda t, p: np.zeros(p.shape[0]))
    spec = ProblemSpec(
        alpha=1.0, T=1.0,
        x0=lambda p: np.sin(np.pi * p[..., 0]),
        sigma=lambda t, p: np.zeros(p.shape[0]),
        forcing=zero, target=zero,
    )
    xbar = forward_mean(spec, system, grid, np.zeros((grid.N + 1, system.n)))
    pts = mesh.interior_nodes[:, 0]
    worst = 0.0
    for n in range(grid.N + 1):
        e = xbar[n] - np.exp(-np.pi**2 * grid.times[n]) * np.sin(np.pi * pts)
        worst = max(worst, float(np.sqrt(e @ (scipy_csr(system.mass) @ e))))
    return worst


def test_criterion_2_deterministic_reduction():
    space_fit = fit_order([(1 / k, _heat_error(k, k * k)) for k in (8, 16, 32, 64)])
    time_fit = fit_order([(1 / k, _heat_error(k, k)) for k in (32, 64, 128, 256)])
    violations = []
    if not 1.8 <= space_fit.slope <= 2.2:
        violations.append(f"tau=h^2 slope {space_fit.slope:.3f} not in [1.8, 2.2]")
    if not 0.9 <= time_fit.slope <= 1.1:
        violations.append(f"tau=h slope {time_fit.slope:.3f} not in [0.9, 1.1]")
    _report(
        "2", violations,
        f"L2 order in h {space_fit.slope:.3f}, in tau {time_fit.slope:.3f}",
    )


RATE_QUANTITIES = ("strong_l2_state", "strong_l2_adjoint", "strong_l2_control", "mu_error")


def test_criterion_3_example1_strong_rates():
    prob = example1()
    reports = convergence_study(
        prob, [Resolution(k, k) for k in (40, 45, 50, 60, 70)], paths=2000, seed=7
    )
    fits = orders_from_reports(reports, scale="tau")
    violations = []
    details = []
    for name in RATE_QUANTITIES:
        fit = fits[name]
        details.append(f"{name}={fit.slope:.3f}/r2={fit.r_squared:.3f}")
        if not 0.7 <= fit.slope <= 1.3:
            violations.append(f"{name} slope {fit.slope:.3f} not in [0.7, 1.3]")
        if fit.r_squared < 0.9:
            violations.append(f"{name} r2 {fit.r_squared:.3f} < 0.9")
    _report("3", violations, ", ".join(details))


def test_criterion_4_example1_refined_rules():
    prob = example1()
    reports = convergence_study(
        prob, [Resolution(k, k * k) for k in (10, 15, 20, 25, 30)], paths=2000, seed=7
    )
    fits = orders_from_reports(reports, scale="h")
    violations = []
    details = []
    for name in RATE_QUANTITIES:
        fit = fits[name]
        details.append(f"{name}={fit.slope:.3f}")
        if not 1.6 <= fit.slope <= 2.4:
            violations.append(f"{name} slope {fit.slope:.3f} not in [1.6, 2.4]")
    for name in ("h1_state", "h1_adjoint"):
        fit = fits[name]
        details.append(f"{name}={fit.slope:.3f}")
        if not 0.7 <= fit.slope <= 1.3:
            violations.append(f"{name} slope {fit.slope:.3f} not in [0.7, 1.3]")
    _report("4", violations, ", ".join(details))


def test_criterion_5_constraint_tables():
    resolutions = [Resolution(k, k) for k in (40, 45, 50, 60, 70)]
    violations = []

    table1 = constraint_table(example1(), [0.2, 0.1, -0.1, -0.2], resolutions)
    table2 = constraint_table(example2(), [1.0, 0.5, -0.5, -1.0], resolutions)
    worst = 0.0
    for cell in table1 + table2:
        gap = abs(cell.integral - cell.delta)
        worst = max(worst, gap)
        if gap > 1e-8:
            violations.append(f"|integral-delta|={gap:.2e} at delta={cell.delta}, h={cell.h:.4f}")
        if cell.integral > cell.delta + 1e-8:
            violations.append(f"infeasible cell delta={cell.delta}, h={cell.h:.4f}")

    mc = constraint_table(
        example1(), [0.2], [Resolution(40, 40)], estimator="monte-carlo", paths=2000, seed=7
    )[0]
    mc_gap = abs(mc.integral - 0.199913)
    if mc_gap > 5e-3:
        violations.append(f"MC cell {mc.integral!r} not within 5e-3 of 1.99913E-1")
    _report(
        "5", violations,
        f"40 mean-field cells pin to delta (worst gap {worst:.1e}); "
        f"MC cell gap to 1.99913E-1 is {mc_gap:.1e}",
    )


def test_criterion_6_projection_properties():
    prob = example1()
    system, grid = setup(prob, Resolution(24, 24))
    loop = GradientProjection(prob.spec, system, grid)
    rng = np.random.default_rng(10)
    violations = []
    worst_slack = 0.0
    for _ in range(100):
        v = rng.normal(size=(grid.N + 1, system.n))
        p = rng.normal(size=(grid.N + 1, system.n))
        pv, _, _ = loop.project(v, prob.delta)
        pp, _, _ = loop.project(p, prob.delta)
        slack = loop.step_norm(pv - pp) - loop.step_norm(v - p)
        worst_slack = max(worst_slack, slack)
        if slack > 1e-9:
            violations.append(f"nonexpansiveness violated by {slack:.2e}")
            break

    prob2 = example2()
    system2, grid2 = setup(prob2, Resolution(12, 12))
    loop1 = GradientProjection(prob.spec, system, grid, OptimizerConfig(eps0=1e-7))
    loop2 = GradientProjection(prob2.spec, system2, grid2, OptimizerConfig(eps0=1e-5))
    runs = [
        (loop1.run(prob.delta), prob.delta),
        (loop1.run(0.1), 0.1),
        (loop2.run(prob2.delta), prob2.delta),
    ]
    checked = 0
    for res, delta in runs:
        for rec in res.records:
            checked += 1
            if rec.constraint_integral > delta + 1e-8:
                violations.append(
                    f"iteration {rec.iteration} infeasible by "
                    f"{rec.constraint_integral - delta:.2e}"
                )
    _report(
        "6", violations,
        f"100 random pairs nonexpansive (worst slack {worst_slack:.1e}); "
        f"{checked} optimizer iterations feasible",
    )


def test_criterion_7_contraction():
    violations = []
    if contraction_certificate(1.0, 1.0, 0.2) != pytest.approx(0.8, rel=1e-14):
        violations.append("first branch certificate wrong")
    f = 0.09 * 2.0 * (1.0 + 2.0 * np.e) - 1.2 + 1.0
    if contraction_certificate(1.0, 1.0, 0.3) != pytest.approx(np.sqrt(f), rel=1e-13):
        violations.append("second branch certificate wrong")
    if contraction_certificate(1.0, 1.0, 0.5) is not None:
        violations.append("rejection branch accepted rho=0.5")

    prob = example1()
    system, grid = setup(prob, Resolution(40, 40))
    config = OptimizerConfig(rho=0.2, eps0=1e-12, max_iter=300)
    loop = GradientProjection(prob.spec, system, grid, config)
    # the iterates, recorded as the loop projects them: u^0 = 0, then u^1, u^2, ...
    iterates = [np.zeros((grid.N + 1, system.n))]
    project = loop.project

    def recording_project(*args):
        u_proj, x, mu = project(*args)
        iterates.append(u_proj.copy())
        return u_proj, x, mu

    loop.project = recording_project
    result = loop.run(prob.delta)
    ustar = result.control
    dists = [loop.step_norm(u - ustar) for u in iterates]
    worst = 0.0
    for i in range(2, len(dists) - 1):
        if dists[i] <= 1e-9 * dists[0]:
            break
        ratio = dists[i + 1] / dists[i]
        worst = max(worst, ratio)
        if ratio > 0.85:
            violations.append(f"ratio {ratio:.4f} > 0.85 at iteration {i}")
            break
    _report(
        "7", violations,
        f"lambda(0.2)=0.8 certified; worst distance ratio {worst:.4f} <= 0.85",
    )


def test_criterion_8_duality_identity():
    violations = []
    worst = 0.0
    cases = [
        (make_interval_mesh(0, 1, 8), 9),
        (make_interval_mesh(0, 1, 16), 12),
        (make_interval_mesh(0, 1, 32), 20),
        (make_rectangle_mesh((0, 0), (1, 1), 8, 8), 9),
        (make_rectangle_mesh((0, 0), (1, 1), 16, 16), 12),
        (make_rectangle_mesh((0, 0), (1, 1), 32, 32), 16),
    ]
    for mesh, steps in cases:
        system = assemble(mesh)
        grid = make_time_grid(1.0, steps)
        m = mtilde_solve(system, grid, 1.0)
        q = qtilde_solve(system, grid, m, 1.0)
        mass = scipy_csr(system.mass)
        lhs = grid.tau * sum(m[n] @ (mass @ m[n]) for n in range(grid.N))
        rhs = grid.tau * (q[1:] @ system.ones_load).sum()
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        if rel > 1e-9:
            violations.append(f"relative gap {rel:.2e} on dim={mesh.dim}, h={mesh.h:.4f}")
    _report("8", violations, f"worst relative gap {worst:.1e} over 1D/2D grids to h=1/32")


def test_criterion_9_lsmc_oracle():
    prob = example1()
    spec = prob.spec
    system, grid = setup(prob, Resolution(40, 40))
    level = grid.N // 2
    ens = sample(10**4, grid, seed=11)
    tau = grid.tau
    t_mid, t_next = float(grid.times[level]), float(grid.times[level + 1])

    result = GradientProjection(spec, system, grid, OptimizerConfig(eps0=1e-8)).run(prob.delta)
    states = path_states_at(spec, system, grid, result.control, ens, level + 1)
    qp = system.quad_points
    w_next = ens.brownian_at(level + 1)
    xd_values = spec.target.mean(t_next, qp) + w_next[:, None] * spec.target.slope(t_next, qp)
    load_matrix = scipy_csr(system.load_matrix)
    xd_proj = system.mass_solve((xd_values @ load_matrix.T).T).T
    payoff = (
        result.adjoint_mean[level + 1][None, :] / tau
        + states
        - xd_proj
    )
    z = lsmc_z_estimate(system, grid, ens, payoff, level)

    solver = system.euler_solver(tau, spec.gamma)
    sigma_load = load_vector(system, lambda p: spec.sigma(t_mid, p))
    xd_slope = spec.target.slope(t_next, qp)
    oracle = tau * (solver.solve(sigma_load) - system.mass_solve(load_matrix @ xd_slope))

    diff = z.const - oracle
    mass = scipy_csr(system.mass)
    rel = float(np.sqrt(diff @ (mass @ diff)) / np.sqrt(oracle @ (mass @ oracle)))
    violations = []
    if rel > 0.05:
        violations.append(f"oracle mismatch {rel:.3f} > 5%")

    flat = np.tile(np.linspace(1.0, 2.0, system.n), (ens.paths, 1))
    z_flat = lsmc_z_estimate(system, grid, ens, flat, level)
    stderr_flat = np.sqrt(flat.var() * tau / ens.paths)
    if np.abs(z_flat.const).max() > 4 * stderr_flat + 1e-12:
        violations.append("deterministic payoff does not estimate zero")

    bump = np.zeros((ens.paths, system.n))
    bump[:, 5] = ens.increments[:, level]
    z_bump = lsmc_z_estimate(system, grid, ens, bump, level)
    stderr_bump = np.sqrt(2 * tau**2 / ens.paths)
    if abs(z_bump.const[5] - tau) > 4 * stderr_bump:
        violations.append("dW payoff does not estimate tau")
    _report("9", violations, f"relative L2 error vs analytic oracle {rel:.4f} <= 0.05")


def test_criterion_10_manufactured_verification():
    violations = []
    worst = 0.0
    for prob in (example1(), example2()):
        rep = verify_manufactured(prob, samples=1000, seed=5)
        drift = max(rep.state_residual, rep.adjoint_mean_residual)
        worst = max(worst, drift)
        if drift > 1e-8:
            violations.append(f"{prob.name} drift residual {drift:.2e}")

    base = example1()
    f = base.spec.forcing
    broken_forcing = AffineInW(lambda t, p: f.mean(t, p) + 1.0, f.slope)
    broken = replace(base, spec=replace(base.spec, forcing=broken_forcing))
    fault = verify_manufactured(broken, samples=200, seed=5)
    if not 0.5 <= fault.state_residual <= 1.5:
        violations.append(f"injected fault not detected ({fault.state_residual:.2e})")
    _report(
        "10", violations,
        f"worst drift residual {worst:.1e} at 1000 samples; injected fault detected",
    )
