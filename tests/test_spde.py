import numpy as np
import pytest
from hypothesis import given, strategies as st

from socfem import (
    AffineInW,
    ProblemSpec,
    Trajectory,
    assemble,
    example1,
    forward_mean,
    forward_paths,
    l2_project,
    lsmc_z_estimate,
    make_interval_mesh,
    make_rectangle_mesh,
    make_time_grid,
    mtilde_solve,
    qtilde_solve,
    sample,
)
from socfem.errors import NumericalError
from socfem.fem import EulerSolver
from socfem.paths import BrownianEnsemble
from socfem.spde import (
    _backward,
    _forward,
    _mass_rows,
    backward_adjoint_from_loads,
    control_response,
    mean_target_loads,
)


def zero_space(x):
    return np.zeros(x.shape[0])


def zero_space_time(t, p):
    return np.zeros(p.shape[0])


ZERO_DATA = AffineInW(zero_space_time, zero_space_time)


def make_spec(x0=zero_space, sigma=None, forcing=ZERO_DATA, target=ZERO_DATA, gamma=1.0):
    sigma = sigma or zero_space_time
    return ProblemSpec(
        alpha=1.0,
        delta=0.0,
        T=1.0,
        x0=x0,
        sigma=sigma,
        forcing=forcing,
        target=target,
        gamma=gamma,
    )


def zero_ensemble(P, grid):
    return BrownianEnsemble(
        paths=P, steps=grid.N, tau=grid.tau, seed=0, increments=np.zeros((P, grid.N))
    )


@pytest.fixture
def sys_half():
    return assemble(make_interval_mesh(0, 1, 2))


class TestForward:
    def test_single_deterministic_step(self, sys_half):
        # x0 equal to the center hat function, sigma = f = u = 0, tau = 1/2
        def hat(x):
            return np.maximum(0.0, 1.0 - np.abs(x[..., 0] - 0.5) / 0.5)

        spec = make_spec(x0=hat)
        grid = make_time_grid(0.5, 1)
        out = forward_paths(spec, sys_half, grid, Trajectory.zeros(grid, 1), zero_ensemble(3, grid))
        assert out.values[:, 0, 0] == pytest.approx([1.0] * 3, abs=1e-12)
        assert out.values[:, 1, 0] == pytest.approx([1 / 7] * 3, abs=1e-12)

    def test_zero_increments_reduce_to_mean(self):
        prob = example1()
        mesh = make_interval_mesh(0, 1, 8)
        system = assemble(mesh)
        grid = make_time_grid(1.0, 8)
        rng = np.random.default_rng(0)
        u = Trajectory(rng.normal(size=(grid.N + 1, system.n)), grid)
        paths = forward_paths(prob.spec, system, grid, u, zero_ensemble(4, grid))
        mean = forward_mean(prob.spec, system, grid, u)
        for p in range(4):
            assert np.array_equal(paths.values[p], mean.values)

    def test_superposition_per_path(self):
        mesh = make_interval_mesh(0, 1, 6)
        system = assemble(mesh)
        grid = make_time_grid(1.0, 5)
        ens = sample(8, grid, seed=3)
        rng = np.random.default_rng(5)
        u1 = Trajectory(rng.normal(size=(grid.N + 1, system.n)), grid)
        u2 = Trajectory(rng.normal(size=(grid.N + 1, system.n)), grid)

        sigma = lambda t, p: np.sin(np.pi * p[..., 0]) * (1 + t)
        f1 = AffineInW(lambda t, p: p[..., 0] + t, zero_space_time)
        f2 = AffineInW(lambda t, p: np.cos(p[..., 0]), lambda t, p: p[..., 0])
        x01 = lambda p: p[..., 0] * (1 - p[..., 0])
        x02 = lambda p: np.sin(2 * np.pi * p[..., 0])

        spec1 = make_spec(x0=x01, sigma=sigma, forcing=f1)
        spec2 = make_spec(x0=x02, forcing=f2)  # sigma = 0
        spec_sum = make_spec(
            x0=lambda p: x01(p) + x02(p),
            sigma=sigma,
            forcing=AffineInW(
                lambda t, p: f1.mean(t, p) + f2.mean(t, p),
                lambda t, p: f1.slope(t, p) + f2.slope(t, p),
            ),
        )
        a = forward_paths(spec1, system, grid, u1, ens)
        b = forward_paths(spec2, system, grid, u2, ens)
        u_sum = Trajectory(u1.values + u2.values, grid)
        c = forward_paths(spec_sum, system, grid, u_sum, ens)
        assert np.abs(c.values - (a.values + b.values)).max() <= 1e-10

    def test_example1_matches_monte_carlo_mean(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 20))
        grid = make_time_grid(1.0, 20)
        ens = sample(2000, grid, seed=7)
        u = Trajectory.zeros(grid, system.n)
        mean = forward_mean(prob.spec, system, grid, u)
        paths = forward_paths(prob.spec, system, grid, u, ens)
        sample_mean = paths.values.mean(axis=0)
        stderr = paths.values.std(axis=0, ddof=1) / np.sqrt(ens.paths)
        gap = np.abs(sample_mean - mean.values)
        assert np.all(gap <= 4 * stderr + 1e-12)

    def test_antithetic_average_recovers_mean(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 10))
        grid = make_time_grid(1.0, 10)
        ens = sample(16, grid, seed=1)
        u = Trajectory.zeros(grid, system.n)
        fwd = forward_paths(prob.spec, system, grid, u, ens).values
        mirror = BrownianEnsemble(
            paths=ens.paths, steps=ens.steps, tau=ens.tau, seed=ens.seed,
            increments=-ens.increments,
        )
        bwd = forward_paths(prob.spec, system, grid, u, mirror).values
        mean = forward_mean(prob.spec, system, grid, u)
        averaged = 0.5 * (fwd + bwd)
        for p in range(16):
            assert np.abs(averaged[p] - mean.values).max() <= 1e-12

    def test_zero_data_gives_zero(self, sys_half):
        grid = make_time_grid(1.0, 4)
        out = forward_mean(make_spec(), sys_half, grid, Trajectory.zeros(grid, 1))
        assert np.abs(out.values).max() == 0.0

    def test_constant_control_increases_monotonically(self):
        system = assemble(make_interval_mesh(0, 1, 4))
        grid = make_time_grid(1.0, 20)  # tau = 0.05 keeps (M + tau A) an M-matrix
        u = Trajectory(np.ones((grid.N + 1, system.n)), grid)
        out = forward_mean(make_spec(), system, grid, u)
        diffs = np.diff(out.values, axis=0)
        assert np.all(diffs > 0)

    def test_misaligned_ensemble_rejected(self, sys_half):
        grid = make_time_grid(1.0, 4)
        other = make_time_grid(1.0, 5)
        with pytest.raises(ValueError):
            forward_paths(
                make_spec(), sys_half, grid, Trajectory.zeros(grid, 1), zero_ensemble(2, other)
            )
        with pytest.raises(ValueError):
            forward_mean(
                make_spec(), sys_half, grid, Trajectory.zeros(grid, 1), zero_ensemble(2, other)
            )


class TestBackwardAdjoint:
    def test_tracked_target_gives_zero(self, sys_half):
        grid = make_time_grid(1.0, 4)
        g = lambda t, p: np.sin(np.pi * p[..., 0]) * (1 + t)
        spec = make_spec(target=AffineInW(g, zero_space_time))
        proj = np.stack([l2_project(sys_half, lambda p, _t=t: g(_t, p)) for t in grid.times])
        loads = mean_target_loads(spec, sys_half, grid)
        y = backward_adjoint_from_loads(sys_half, grid, spec.gamma, proj, loads, 0.0)
        assert np.abs(y.values).max() <= 1e-12

    def test_one_step_oracle(self, sys_half):
        grid = make_time_grid(0.5, 1)
        x_levels = np.array([[0.0], [1.0]])
        y = backward_adjoint_from_loads(sys_half, grid, 1.0, x_levels, np.zeros((2, 1)), 0.0)
        assert y.values[0] == pytest.approx([1 / 14], abs=1e-14)
        assert y.values[1] == pytest.approx([0.0], abs=0)

    def test_affine_in_mu(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 8))
        grid = make_time_grid(1.0, 6)
        x = Trajectory(np.linspace(0, 1, (grid.N + 1) * system.n).reshape(grid.N + 1, -1), grid)
        loads = mean_target_loads(prob.spec, system, grid)
        y0 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x.values, loads, 0.0)
        y1 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x.values, loads, 1.3)
        y2 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x.values, loads, 2.9)
        unit = (y1.values - y0.values) / 1.3
        assert np.abs((y2.values - y0.values) - 2.9 * unit).max() <= 1e-10

    def test_example1_adjoint_error_halves_with_resolution(self):
        prob = example1()
        errs = []
        for k in (20, 40):
            system = assemble(make_interval_mesh(0, 1, k))
            grid = make_time_grid(1.0, k)
            pts = system.mesh.interior_nodes
            u = Trajectory(
                np.stack([prob.exact_u(t, pts) for t in grid.times]), grid
            )
            x = forward_mean(prob.spec, system, grid, u)
            loads = mean_target_loads(prob.spec, system, grid)
            y = backward_adjoint_from_loads(
                system, grid, prob.spec.gamma, x.values, loads, prob.exact_mu
            )
            err = max(
                np.abs(y.values[n] - prob.exact_y(float(grid.times[n]), pts)).max()
                for n in range(grid.N + 1)
            )
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.6)


class TestAuxiliarySystems:
    def test_mtilde_oracle(self, sys_half):
        grid = make_time_grid(1.0, 2)
        m = mtilde_solve(sys_half, grid)
        assert m.values[grid.N] == pytest.approx([0.0], abs=0)
        assert m.values[grid.N - 1] == pytest.approx([3 / 28], abs=1e-14)

    def test_mtilde_nonnegative(self):
        system = assemble(make_interval_mesh(0, 1, 8))
        grid = make_time_grid(1.0, 8)
        m = mtilde_solve(system, grid)
        assert m.values.min() >= -1e-14

    def test_qtilde_zero_source(self, sys_half):
        grid = make_time_grid(1.0, 3)
        q = qtilde_solve(sys_half, grid, Trajectory.zeros(grid, 1))
        assert np.abs(q.values).max() == 0.0

    def test_qtilde_oracle(self, sys_half):
        grid = make_time_grid(0.5, 1)
        m = mtilde_solve(sys_half, grid)
        q = qtilde_solve(sys_half, grid, m)
        assert q.values[0] == pytest.approx([0.0], abs=0)
        assert q.values[1] == pytest.approx([3 / 392], abs=1e-14)

    def test_qtilde_integral_positive(self):
        for cells, steps in [(8, 2), (8, 5), (16, 16)]:
            system = assemble(make_interval_mesh(0, 1, cells))
            grid = make_time_grid(1.0, steps)
            m = mtilde_solve(system, grid)
            q = qtilde_solve(system, grid, m)
            integral = grid.tau * (q.values[1:] @ system.ones_load).sum()
            assert integral > 0.0

    @pytest.mark.parametrize(
        "mesh,gamma",
        [
            (make_interval_mesh(0, 1, 8), 1.0),
            (make_interval_mesh(0, 1, 32), 1.0),
            (make_interval_mesh(0, 1, 16), 0.2),
            (make_rectangle_mesh((0, 0), (1, 1), 16, 16), 1.0),
            (make_rectangle_mesh((0, 0), (1, 1), 32, 32), 0.2),
        ],
    )
    def test_duality_identity(self, mesh, gamma):
        system = assemble(mesh)
        grid = make_time_grid(1.0, 12)
        m = mtilde_solve(system, grid, gamma)
        q = qtilde_solve(system, grid, m, gamma)
        lhs = grid.tau * sum(
            m.values[n] @ (system.mass @ m.values[n]) for n in range(grid.N)
        )
        rhs = grid.tau * (q.values[1:] @ system.ones_load).sum()
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


    @given(
        dim=st.sampled_from([1, 2]),
        cells=st.integers(2, 16),
        steps=st.integers(1, 20),
        T=st.floats(0.1, 3.0),
        gamma=st.floats(0.1, 2.0),
    )
    def test_duality_identity_on_random_grids(self, dim, cells, steps, T, gamma):
        if dim == 1:
            mesh = make_interval_mesh(0, 1, cells)
        else:
            mesh = make_rectangle_mesh((0, 0), (1, 1), cells, cells)
        system = assemble(mesh)
        grid = make_time_grid(T, steps)
        m = mtilde_solve(system, grid, gamma)
        q = qtilde_solve(system, grid, m, gamma)
        lhs = grid.tau * sum(
            m.values[n] @ (system.mass @ m.values[n]) for n in range(grid.N)
        )
        rhs = grid.tau * (q.values[1:] @ system.ones_load).sum()
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


KERNEL_SYSTEM = assemble(make_interval_mesh(0, 1, 8))
KERNEL_GRID = make_time_grid(1.0, 6)
coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
seeds = st.integers(0, 2**32 - 1)


def _forward_levels(x0, u):
    """Every level of the forward kernel, shape (N+1, n, k)."""
    sweep = _forward(KERNEL_SYSTEM, KERNEL_GRID, 1.0, x0, Trajectory(u, KERNEL_GRID))
    return np.stack([x.copy() for _, x in sweep])


def _is_combination(lhs, a, k1, b, k2):
    """lhs == a*k1 + b*k2 to 1e-12 relative to the size of the two terms."""
    scale = np.abs(a * k1).max() + np.abs(b * k2).max()
    return np.abs(lhs - (a * k1 + b * k2)).max() <= 1e-12 * scale


class TestKernels:
    @given(a=coefficients, b=coefficients, s1=seeds, s2=seeds)
    def test_forward_linear_in_initial_state_and_control(self, a, b, s1, s2):
        n, levels = KERNEL_SYSTEM.n, KERNEL_GRID.N + 1
        rng1, rng2 = np.random.default_rng(s1), np.random.default_rng(s2)
        x1, u1 = rng1.normal(size=(n, 3)), rng1.normal(size=(levels, n))
        x2, u2 = rng2.normal(size=(n, 3)), rng2.normal(size=(levels, n))
        lhs = _forward_levels(a * x1 + b * x2, a * u1 + b * u2)
        assert _is_combination(lhs, a, _forward_levels(x1, u1), b, _forward_levels(x2, u2))

    @given(a=coefficients, b=coefficients, s1=seeds, s2=seeds)
    def test_backward_linear_in_source(self, a, b, s1, s2):
        shape = (KERNEL_GRID.N + 1, KERNEL_SYSTEM.n)
        src1 = np.random.default_rng(s1).normal(size=shape)
        src2 = np.random.default_rng(s2).normal(size=shape)

        def sweep(src):
            return _backward(KERNEL_SYSTEM, KERNEL_GRID, 1.0, src).values

        assert _is_combination(sweep(a * src1 + b * src2), a, sweep(src1), b, sweep(src2))

    @pytest.mark.parametrize(
        "mesh", [make_interval_mesh(0, 1, 40), make_rectangle_mesh((0, 0), (1, 1), 60, 60)]
    )
    def test_whole_trajectory_mass_product_matches_per_step(self, mesh):
        system = assemble(mesh)
        levels = np.random.default_rng(3).normal(size=(9, system.n))
        per_step = np.stack([system.mass @ row for row in levels])
        assert np.array_equal(_mass_rows(system, levels), per_step)
        # a one-column block steps exactly like a vector
        solver = system.euler_solver(0.01)
        assert np.array_equal(solver.solve(levels[0][:, None])[:, 0], solver.solve(levels[0]))


def _corrupt_call(monkeypatch, index):
    """Scale the solution of the ``index``-th unchecked implicit-Euler solve by 1 + 1e-6."""
    calls = []
    real = EulerSolver.solve_unchecked

    def corrupted(self, rhs):
        x = real(self, rhs)
        calls.append(None)
        return x * (1.0 + 1e-6) if len(calls) == index + 1 else x

    monkeypatch.setattr(EulerSolver, "solve_unchecked", corrupted)


CHECK_GRID = make_time_grid(1.0, 12)
CHECK_SYSTEMS = [
    pytest.param(assemble(make_interval_mesh(0, 1, 40)), id="interval40"),
    pytest.param(assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8)), id="rectangle8x8"),
]


class TestDeferredCheck:
    """Single-column sweeps solve unchecked and check every level once, at the end."""

    def test_bad_forward_level_is_named(self, monkeypatch):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        u = Trajectory(np.random.default_rng(1).normal(size=(grid.N + 1, system.n)), grid)
        _corrupt_call(monkeypatch, 6)  # forward call 6 solves level 7
        with pytest.raises(NumericalError, match="at level 7$"):
            control_response(system, grid, u)

    def test_bad_backward_level_is_named(self, monkeypatch):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        _corrupt_call(monkeypatch, grid.N - 1 - 7)  # backward calls run N-1 down to 0
        with pytest.raises(NumericalError, match="at level 7$"):
            mtilde_solve(system, grid)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_control_is_numerical_error(self):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        u = np.ones((grid.N + 1, system.n))
        u[5, 3] = np.inf
        with pytest.raises(NumericalError, match="undefined"):
            control_response(system, grid, Trajectory(u, grid))

    @pytest.mark.parametrize("system", CHECK_SYSTEMS)
    def test_sweeps_equal_a_loop_of_checked_solves(self, system):
        grid = CHECK_GRID
        tau, mass = grid.tau, system.mass
        solver = system.euler_solver(tau, 0.7)
        rng = np.random.default_rng(2)
        u, x_levels, loads = (rng.normal(size=(grid.N + 1, system.n)) for _ in range(3))

        x = np.zeros(system.n)
        response = [x]
        for n in range(grid.N):
            x = solver.solve(mass @ x + tau * (mass @ u[n]))
            response.append(x)
        got = control_response(system, grid, Trajectory(u, grid), 0.7)
        assert np.array_equal(got.values, np.stack(response))

        def backward(source):
            y = np.zeros(system.n)
            levels = [y]
            for n in range(grid.N - 1, -1, -1):
                y = solver.solve(mass @ y + tau * source[n + 1])
                levels.append(y)
            return np.stack(levels[::-1])

        ones = np.broadcast_to(system.ones_load, (grid.N + 1, system.n))
        assert np.array_equal(mtilde_solve(system, grid, 0.7).values, backward(ones))
        source = np.stack([mass @ x - load + 1.3 * system.ones_load
                           for x, load in zip(x_levels, loads)])
        got = backward_adjoint_from_loads(system, grid, 0.7, x_levels, loads, 1.3)
        assert np.array_equal(got.values, backward(source))


class TestLsmcZ:
    @pytest.fixture
    def setup_small(self):
        system = assemble(make_interval_mesh(0, 1, 8))
        grid = make_time_grid(1.0, 10)
        ens = sample(4000, grid, seed=13)
        return system, grid, ens

    def test_deterministic_payoff_estimates_zero(self, setup_small):
        system, grid, ens = setup_small
        payoff = np.tile(np.linspace(1.0, 2.0, system.n), (ens.paths, 1))
        z = lsmc_z_estimate(system, grid, ens, payoff, level=4)
        stderr = np.sqrt(payoff.var() * grid.tau / ens.paths)
        assert np.abs(z.const).max() <= 4 * stderr + 1e-12

    def test_increment_payoff_estimates_tau(self, setup_small):
        system, grid, ens = setup_small
        payoff = np.zeros((ens.paths, system.n))
        payoff[:, 2] = ens.increments[:, 4]
        z = lsmc_z_estimate(system, grid, ens, payoff, level=4)
        stderr = np.sqrt(2 * grid.tau**2 / ens.paths)
        assert abs(z.const[2] - grid.tau) <= 4 * stderr

    def test_level_zero_falls_back_to_mean(self, setup_small):
        system, grid, ens = setup_small
        payoff = np.zeros((ens.paths, system.n))
        payoff[:, 0] = ens.increments[:, 0]
        z = lsmc_z_estimate(system, grid, ens, payoff, level=0)
        assert z.fallback
        assert np.abs(z.slope).max() == 0.0
        stderr = np.sqrt(2 * grid.tau**2 / ens.paths)
        assert abs(z.const[0] - grid.tau) <= 4 * stderr

    def test_evaluate_shapes(self, setup_small):
        system, grid, ens = setup_small
        payoff = np.ones((ens.paths, system.n))
        z = lsmc_z_estimate(system, grid, ens, payoff, level=3)
        assert z.evaluate(0.0).shape == (system.n,)
        assert z.evaluate(np.zeros(5)).shape == (5, system.n)

    def test_bad_shapes_rejected(self, setup_small):
        system, grid, ens = setup_small
        with pytest.raises(ValueError):
            lsmc_z_estimate(system, grid, ens, np.ones((3, system.n)), level=2)
        with pytest.raises(ValueError):
            lsmc_z_estimate(system, grid, ens, np.ones((ens.paths, system.n)), level=grid.N)


class TestProblemSpecValidation:
    @pytest.mark.parametrize("field,value", [("alpha", 0.0), ("T", -1.0), ("gamma", 0.0)])
    def test_positivity(self, field, value):
        kwargs = dict(
            alpha=1.0, delta=0.0, T=1.0, x0=zero_space,
            sigma=lambda t, p: np.zeros(p.shape[0]),
            forcing=ZERO_DATA,
            target=ZERO_DATA,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)

    def test_trajectory_shape_checked(self):
        grid = make_time_grid(1.0, 4)
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2)), grid)
