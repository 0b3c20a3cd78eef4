import numpy as np
import pytest
from hypothesis import given, strategies as st

from socfem import (
    AffineInW,
    ProblemSpec,
    Resolution,
    assemble,
    example1,
    forward_mean,
    l2_project,
    lsmc_z_estimate,
    make_interval_mesh,
    make_rectangle_mesh,
    make_time_grid,
    mtilde_solve,
    qtilde_solve,
    sample,
)
from socfem.analysis import setup
from socfem.errors import NumericalError
from socfem.fem import EulerSolver, load_vector
from socfem.paths import BrownianEnsemble
from socfem.problems import BY_NAME
from socfem.spde import (
    SweepData,
    _control_loads,
    _row_sweep,
    backward_adjoint_from_loads,
    control_response,
    iter_forward_paths,
    mean_target_loads,
)

from helpers import path_states, scipy_csr


def zero_space(x):
    return np.zeros(x.shape[0])


def zero_space_time(t, p):
    return np.zeros(p.shape[0])


ZERO_DATA = AffineInW(zero_space_time, zero_space_time)


def make_spec(x0=zero_space, sigma=None, forcing=ZERO_DATA, target=ZERO_DATA, gamma=1.0):
    sigma = sigma or zero_space_time
    return ProblemSpec(
        alpha=1.0,
        T=1.0,
        x0=x0,
        sigma=sigma,
        forcing=forcing,
        target=target,
        gamma=gamma,
    )


def zero_ensemble(P, grid):
    return BrownianEnsemble(tau=grid.tau, seed=0, increments=np.zeros((P, grid.N)))


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
        out = path_states(spec, sys_half, grid, np.zeros((grid.N + 1, 1)), zero_ensemble(3, grid))
        assert out[:, 0, 0] == pytest.approx([1.0] * 3, abs=1e-12)
        assert out[:, 1, 0] == pytest.approx([1 / 7] * 3, abs=1e-12)

    def test_zero_increments_reduce_to_mean(self):
        prob = example1()
        mesh = make_interval_mesh(0, 1, 8)
        system = assemble(mesh)
        grid = make_time_grid(1.0, 8)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(grid.N + 1, system.n))
        paths = path_states(prob.spec, system, grid, u, zero_ensemble(4, grid))
        mean = forward_mean(prob.spec, system, grid, u)
        for p in range(4):
            assert np.array_equal(paths[p], mean)

    @pytest.mark.parametrize("name,cells", [("example1", 8), ("example2", 4)])
    def test_one_path_equals_its_mean_sweep(self, name, cells):
        # the mean of one path is that path, at nonzero W: the block and the
        # single-column layouts evaluate the data terms to the same bits
        prob = BY_NAME[name]()
        system, grid = setup(prob, Resolution(cells, 8))
        ens = sample(1, grid, seed=5)
        assert np.abs(ens.brownian[0, 1:]).min() > 0.0
        u = np.random.default_rng(2).normal(size=(grid.N + 1, system.n))
        paths = path_states(prob.spec, system, grid, u, ens)
        mean = forward_mean(prob.spec, system, grid, u, ensemble=ens)
        assert paths[0].tobytes() == mean.tobytes()

    def test_superposition_per_path(self):
        mesh = make_interval_mesh(0, 1, 6)
        system = assemble(mesh)
        grid = make_time_grid(1.0, 5)
        ens = sample(8, grid, seed=3)
        rng = np.random.default_rng(5)
        u1 = rng.normal(size=(grid.N + 1, system.n))
        u2 = rng.normal(size=(grid.N + 1, system.n))

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
        a = path_states(spec1, system, grid, u1, ens)
        b = path_states(spec2, system, grid, u2, ens)
        u_sum = u1 + u2
        c = path_states(spec_sum, system, grid, u_sum, ens)
        assert np.abs(c - (a + b)).max() <= 1e-10

    def test_example1_matches_monte_carlo_mean(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 20))
        grid = make_time_grid(1.0, 20)
        ens = sample(2000, grid, seed=7)
        u = np.zeros((grid.N + 1, system.n))
        mean = forward_mean(prob.spec, system, grid, u)
        paths = path_states(prob.spec, system, grid, u, ens)
        sample_mean = paths.mean(axis=0)
        stderr = paths.std(axis=0, ddof=1) / np.sqrt(ens.paths)
        gap = np.abs(sample_mean - mean)
        assert np.all(gap <= 4 * stderr + 1e-12)

    def test_antithetic_average_recovers_mean(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 10))
        grid = make_time_grid(1.0, 10)
        ens = sample(16, grid, seed=1)
        u = np.zeros((grid.N + 1, system.n))
        fwd = path_states(prob.spec, system, grid, u, ens)
        mirror = BrownianEnsemble(tau=ens.tau, seed=ens.seed, increments=-ens.increments)
        bwd = path_states(prob.spec, system, grid, u, mirror)
        mean = forward_mean(prob.spec, system, grid, u)
        averaged = 0.5 * (fwd + bwd)
        for p in range(16):
            assert np.abs(averaged[p] - mean).max() <= 1e-12

    def test_zero_data_gives_zero(self, sys_half):
        grid = make_time_grid(1.0, 4)
        out = forward_mean(make_spec(), sys_half, grid, np.zeros((grid.N + 1, 1)))
        assert np.abs(out).max() == 0.0

    def test_constant_control_increases_monotonically(self):
        system = assemble(make_interval_mesh(0, 1, 4))
        grid = make_time_grid(1.0, 20)  # tau = 0.05 keeps (M + tau A) an M-matrix
        u = np.ones((grid.N + 1, system.n))
        out = forward_mean(make_spec(), system, grid, u)
        diffs = np.diff(out, axis=0)
        assert np.all(diffs > 0)

    def test_misaligned_ensemble_rejected(self, sys_half):
        grid = make_time_grid(1.0, 4)
        other = make_time_grid(1.0, 5)
        with pytest.raises(ValueError):
            path_states(
                make_spec(), sys_half, grid, np.zeros((grid.N + 1, 1)), zero_ensemble(2, other)
            )
        with pytest.raises(ValueError):
            forward_mean(
                make_spec(), sys_half, grid, np.zeros((grid.N + 1, 1)), zero_ensemble(2, other)
            )

    def test_ensemble_shape_comes_from_its_increments(self, sys_half):
        # 6 increments per path against a 4-step grid: rejected, not truncated
        grid = make_time_grid(1.0, 4)
        increments = np.arange(12.0).reshape(2, 6) / 10
        brownian = np.zeros((2, 7))
        np.cumsum(increments, axis=1, out=brownian[:, 1:])
        ens = BrownianEnsemble(tau=grid.tau, seed=0, increments=increments, brownian=brownian)
        assert (ens.paths, ens.steps) == (2, 6)
        with pytest.raises(ValueError, match="not aligned"):
            forward_mean(make_spec(), sys_half, grid, np.zeros((grid.N + 1, 1)), ens)
        with pytest.raises(ValueError, match="not aligned"):
            mean_target_loads(make_spec(), sys_half, grid, ens)
        with pytest.raises(ValueError, match=r"brownian shape \(2, 5\)"):
            BrownianEnsemble(
                tau=grid.tau, seed=0, increments=increments, brownian=brownian[:, :5]
            )
        with pytest.raises(ValueError, match=r"brownian shape \(1, 7\)"):
            BrownianEnsemble(tau=grid.tau, seed=0, increments=increments, brownian=brownian[:1])
        assert ens.subset(1, 2).paths == 1


class TestBackwardAdjoint:
    def test_tracked_target_gives_zero(self, sys_half):
        grid = make_time_grid(1.0, 4)
        g = lambda t, p: np.sin(np.pi * p[..., 0]) * (1 + t)
        spec = make_spec(target=AffineInW(g, zero_space_time))
        proj = np.stack([l2_project(sys_half, lambda p, _t=t: g(_t, p)) for t in grid.times])
        loads = mean_target_loads(spec, sys_half, grid)
        y = backward_adjoint_from_loads(sys_half, grid, spec.gamma, proj, loads, 0.0)
        assert np.abs(y).max() <= 1e-12

    def test_one_step_oracle(self, sys_half):
        grid = make_time_grid(0.5, 1)
        x_levels = np.array([[0.0], [1.0]])
        y = backward_adjoint_from_loads(sys_half, grid, 1.0, x_levels, np.zeros((2, 1)), 0.0)
        assert y[0] == pytest.approx([1 / 14], abs=1e-14)
        assert y[1] == pytest.approx([0.0], abs=0)

    def test_affine_in_mu(self):
        prob = example1()
        system = assemble(make_interval_mesh(0, 1, 8))
        grid = make_time_grid(1.0, 6)
        x = np.linspace(0, 1, (grid.N + 1) * system.n).reshape(grid.N + 1, -1)
        loads = mean_target_loads(prob.spec, system, grid)
        y0 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x, loads, 0.0)
        y1 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x, loads, 1.3)
        y2 = backward_adjoint_from_loads(system, grid, prob.spec.gamma, x, loads, 2.9)
        unit = (y1 - y0) / 1.3
        assert np.abs((y2 - y0) - 2.9 * unit).max() <= 1e-10

    def test_example1_adjoint_error_halves_with_resolution(self):
        prob = example1()
        errs = []
        for k in (20, 40):
            system = assemble(make_interval_mesh(0, 1, k))
            grid = make_time_grid(1.0, k)
            pts = system.mesh.interior_nodes
            u = np.stack([prob.exact_u(t, pts) for t in grid.times])
            x = forward_mean(prob.spec, system, grid, u)
            loads = mean_target_loads(prob.spec, system, grid)
            y = backward_adjoint_from_loads(
                system, grid, prob.spec.gamma, x, loads, prob.exact_mu
            )
            err = max(
                np.abs(y[n] - prob.exact_y(float(grid.times[n]), pts)).max()
                for n in range(grid.N + 1)
            )
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.6)


class TestAuxiliarySystems:
    def test_mtilde_oracle(self, sys_half):
        grid = make_time_grid(1.0, 2)
        m = mtilde_solve(sys_half, grid, 1.0)
        assert m[grid.N] == pytest.approx([0.0], abs=0)
        assert m[grid.N - 1] == pytest.approx([3 / 28], abs=1e-14)

    def test_mtilde_nonnegative(self):
        system = assemble(make_interval_mesh(0, 1, 8))
        grid = make_time_grid(1.0, 8)
        m = mtilde_solve(system, grid, 1.0)
        assert m.min() >= -1e-14

    def test_qtilde_zero_source(self, sys_half):
        grid = make_time_grid(1.0, 3)
        q = qtilde_solve(sys_half, grid, np.zeros((grid.N + 1, 1)), 1.0)
        assert np.abs(q).max() == 0.0

    def test_qtilde_oracle(self, sys_half):
        grid = make_time_grid(0.5, 1)
        m = mtilde_solve(sys_half, grid, 1.0)
        q = qtilde_solve(sys_half, grid, m, 1.0)
        assert q[0] == pytest.approx([0.0], abs=0)
        assert q[1] == pytest.approx([3 / 392], abs=1e-14)

    def test_qtilde_integral_positive(self):
        for cells, steps in [(8, 2), (8, 5), (16, 16)]:
            system = assemble(make_interval_mesh(0, 1, cells))
            grid = make_time_grid(1.0, steps)
            m = mtilde_solve(system, grid, 1.0)
            q = qtilde_solve(system, grid, m, 1.0)
            integral = grid.tau * (q[1:] @ system.ones_load).sum()
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
        mass = scipy_csr(system.mass)
        lhs = grid.tau * sum(m[n] @ (mass @ m[n]) for n in range(grid.N))
        rhs = grid.tau * (q[1:] @ system.ones_load).sum()
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
        mass = scipy_csr(system.mass)
        lhs = grid.tau * sum(m[n] @ (mass @ m[n]) for n in range(grid.N))
        rhs = grid.tau * (q[1:] @ system.ones_load).sum()
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


KERNEL_SYSTEM = assemble(make_interval_mesh(0, 1, 8))
KERNEL_GRID = make_time_grid(1.0, 6)
coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
seeds = st.integers(0, 2**32 - 1)


def _forward_levels(x0, u):
    """Every level of the row kernel run from each column of x0 (n, k), shape (N+1, n, k)."""

    def column(x):
        _control_loads(KERNEL_SYSTEM, KERNEL_GRID, u)
        return _row_sweep(KERNEL_SYSTEM, KERNEL_GRID, 1.0, x)

    return np.stack([column(x) for x in x0.T], axis=-1)


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
            rows = KERNEL_SYSTEM.sweep_tables(KERNEL_GRID.N).rows
            np.multiply(KERNEL_GRID.tau, src[1:], out=rows)  # the kernel reads tau*source
            return _row_sweep(KERNEL_SYSTEM, KERNEL_GRID, 1.0, 0.0, backward=True)

        assert _is_combination(sweep(a * src1 + b * src2), a, sweep(src1), b, sweep(src2))

    @pytest.mark.parametrize(
        "mesh", [make_interval_mesh(0, 1, 40), make_rectangle_mesh((0, 0), (1, 1), 60, 60)]
    )
    def test_whole_trajectory_mass_product_matches_per_step(self, mesh):
        system = assemble(mesh)
        levels = np.random.default_rng(3).normal(size=(9, system.n))
        per_step = np.stack([scipy_csr(system.mass) @ row for row in levels])
        assert np.array_equal(system.mass_rows(levels), per_step)
        # a one-column block steps exactly like a vector
        solver = system.euler_solver(0.01)
        assert np.array_equal(solver.solve(levels[0][:, None])[:, 0], solver.solve(levels[0]))


def _corrupt_call(monkeypatch, index):
    """Scale the solution of the ``index``-th unchecked implicit-Euler solve by 1 + 1e-6,
    in place, as the sweeps read it."""
    calls = []
    real = EulerSolver.solve_unchecked

    def corrupted(self, rhs):
        x = real(self, rhs)
        calls.append(None)
        if len(calls) == index + 1:
            x *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(EulerSolver, "solve_unchecked", corrupted)


CHECK_GRID = make_time_grid(1.0, 12)
DATA_SPEC = make_spec(
    x0=lambda p: np.sin(np.pi * p[:, 0]),
    sigma=lambda t, p: (1.0 + t) * p[:, 0],
    forcing=AffineInW(lambda t, p: np.cos(t + p.sum(axis=1)), lambda t, p: t * p[:, -1]),
    gamma=0.7,
)
CHECK_SYSTEMS = [
    pytest.param(assemble(make_interval_mesh(0, 1, 40)), id="interval40"),
    pytest.param(assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8)), id="rectangle8x8"),
]


class TestDeferredCheck:
    """Single-column sweeps solve unchecked and check every level once, at the end;
    the path sweep checks each level before it yields it."""

    def test_bad_forward_level_is_named(self, monkeypatch):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        u = np.random.default_rng(1).normal(size=(grid.N + 1, system.n))
        _corrupt_call(monkeypatch, 6)  # forward call 6 solves level 7
        with pytest.raises(NumericalError, match="at level 7$"):
            control_response(system, grid, u, 1.0)

    def test_bad_backward_level_is_named(self, monkeypatch):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        _corrupt_call(monkeypatch, grid.N - 1 - 7)  # backward calls run N-1 down to 0
        with pytest.raises(NumericalError, match="at level 7$"):
            mtilde_solve(system, grid, 1.0)

    def test_bad_path_level_raises_before_it_is_yielded(self, monkeypatch):
        system, grid = KERNEL_SYSTEM, CHECK_GRID
        control = np.random.default_rng(1).normal(size=(grid.N + 1, system.n))
        ens = sample(3, grid, seed=5)
        _corrupt_call(monkeypatch, 4)  # the path sweep's solve 4 gives level 5
        yielded = []
        with pytest.raises(NumericalError, match="in column 0$"):
            for n, _ in iter_forward_paths(DATA_SPEC, system, grid, control, ens):
                yielded.append(n)
        assert yielded == [0, 1, 2, 3, 4]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_control_is_numerical_error(self):
        system = KERNEL_SYSTEM
        grid = CHECK_GRID
        u = np.ones((grid.N + 1, system.n))
        u[5, 3] = np.inf
        with pytest.raises(NumericalError, match="undefined"):
            control_response(system, grid, u, 1.0)

    @pytest.mark.parametrize("system", CHECK_SYSTEMS)
    def test_sweeps_equal_a_loop_of_checked_solves(self, system):
        grid = CHECK_GRID
        tau, mass = grid.tau, scipy_csr(system.mass)
        solver = system.euler_solver(tau, 0.7)
        rng = np.random.default_rng(2)
        u, x_levels, loads = (rng.normal(size=(grid.N + 1, system.n)) for _ in range(3))

        def forward(x, terms=lambda n: ()):
            """Levels from x, (n,) or (n, k): M x, + tau*M u, + each term, then solve."""
            levels = [x]
            for n in range(grid.N):
                control_load = tau * (mass @ u[n])
                rhs = mass @ x + (control_load if x.ndim == 1 else control_load[:, None])
                for term in terms(n):
                    rhs = rhs + term
                x = solver.solve(rhs)
                levels.append(x)
            return np.stack(levels)

        got = control_response(system, grid, u, 0.7)
        assert np.array_equal(got, forward(np.zeros(system.n)))

        def backward(source):
            y = np.zeros(system.n)
            levels = [y]
            for n in range(grid.N - 1, -1, -1):
                y = solver.solve(mass @ y + tau * source[n + 1])
                levels.append(y)
            return np.stack(levels[::-1])

        ones = np.broadcast_to(system.ones_load, (grid.N + 1, system.n))
        assert np.array_equal(mtilde_solve(system, grid, 0.7), backward(ones))
        source = np.stack([mass @ x - load + 1.3 * system.ones_load
                           for x, load in zip(x_levels, loads)])
        got = backward_adjoint_from_loads(system, grid, 0.7, x_levels, loads, 1.3)
        assert np.array_equal(got, backward(source))

        # the data sweeps: tau*(f0 + W f1), then sigma dW, all loads at t_n
        spec = DATA_SPEC
        f0, f1, sig = (
            np.stack([load_vector(system, lambda p: fn(t, p)) for t in grid.times[:-1]])
            for fn in (spec.forcing.mean, spec.forcing.slope, spec.sigma)
        )
        x0 = l2_project(system, spec.x0)
        got = forward_mean(spec, system, grid, u)
        assert np.array_equal(got, forward(x0, lambda n: [tau * f0[n]]))

        ens = sample(5, grid, seed=4)
        w, dw = ens.brownian.mean(axis=0), ens.increments.mean(axis=0)
        got = forward_mean(spec, system, grid, u, ens)
        expected = forward(x0, lambda n: [tau * (f0[n] + f1[n] * w[n]), sig[n] * dw[n]])
        assert np.array_equal(got, expected)

        w, dw = ens.brownian, ens.increments
        expected = forward(np.tile(x0[:, None], (1, ens.paths)), lambda n: [
            tau * (f0[n][:, None] + f1[n][:, None] * w[:, n]), sig[n][:, None] * dw[:, n]
        ])
        yielded = []
        for level, x in iter_forward_paths(spec, system, grid, u, ens):
            # each level is final when it is yielded, into the one array the sweep reuses
            assert x.flags.c_contiguous and x.tobytes() == expected[level].tobytes()
            yielded.append(x)
        assert len(yielded) == grid.N + 1 and all(x is yielded[0] for x in yielded)

    def test_mean_sweep_while_path_sweep_is_suspended(self):
        # the mean sweeps stage their loads in the system's one set of sweep
        # tables; the path sweep copied its own, so it steps on unchanged
        system, grid = KERNEL_SYSTEM, CHECK_GRID
        control, other = np.random.default_rng(6).normal(size=(2, grid.N + 1, system.n))
        ens = sample(3, grid, seed=5)
        alone = [x.copy() for _, x in iter_forward_paths(DATA_SPEC, system, grid, control, ens)]
        paths = iter_forward_paths(DATA_SPEC, system, grid, control, ens)
        levels = [next(paths)[1].copy() for _ in range(4)]
        control_response(system, grid, other, DATA_SPEC.gamma)
        mtilde_solve(system, grid, DATA_SPEC.gamma)
        levels += [x.copy() for _, x in paths]
        assert len(levels) == len(alone) == grid.N + 1
        for got, want in zip(levels, alone):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "misfit", ["out rows", "out cols", "out order", "control rows", "control cols"]
    )
    def test_misfit_buffers_rejected_before_any_solve(self, monkeypatch, misfit):
        system, grid = KERNEL_SYSTEM, CHECK_GRID
        N, n = grid.N, system.n
        calls = []
        real = EulerSolver.solve_unchecked

        def counted(self, rhs):
            calls.append(None)
            return real(self, rhs)

        monkeypatch.setattr(EulerSolver, "solve_unchecked", counted)
        out_shape = {"out rows": (N + 2, n), "out cols": (N + 1, n - 1)}.get(misfit, (N + 1, n))
        out = np.empty(out_shape, order="F" if misfit == "out order" else "C")
        level_shape = {"control rows": (N, n), "control cols": (N + 1, n + 1)}
        levels = np.ones(level_shape.get(misfit, (N + 1, n)))
        with pytest.raises(ValueError):
            control_response(system, grid, levels, 1.0, out=out)
        with pytest.raises(ValueError):
            backward_adjoint_from_loads(system, grid, 1.0, levels, levels, 0.5, out=out)
        assert calls == []
        control_response(system, grid, np.ones((N + 1, n)), 1.0, out=np.empty((N + 1, n)))
        assert len(calls) == N  # the counter sees the solves of a run that fits

    @pytest.mark.parametrize("misfit", ["x_levels", "target_loads"])
    def test_misaligned_adjoint_levels_leave_the_tables_alone(self, misfit):
        system, grid = assemble(make_interval_mesh(0, 1, 8)), CHECK_GRID
        N, n = grid.N, system.n
        control_response(system, grid, np.ones((N + 1, n)), 1.0)
        keys = sorted(system._tables_cache)
        fit, short = np.ones((N + 1, n)), np.ones((N, n))
        levels = (short, fit) if misfit == "x_levels" else (fit, short)
        with pytest.raises(ValueError, match=rf"^{misfit} of shape \({N}, {n}\) is not aligned"):
            backward_adjoint_from_loads(system, grid, 1.0, *levels, 0.5)
        assert sorted(system._tables_cache) == keys == [N]


class TestLoadTables:
    """Level tables load each level through the bare kernel that ``load_vector`` ends in."""

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(12, 9)), ("example2", Resolution(5, 4))]
    )
    def test_tables_equal_per_level_load_vectors(self, name, res):
        prob = BY_NAME[name]()
        spec = prob.spec
        system, grid = setup(prob, res)
        ens = sample(7, grid, seed=3)

        def rows(fn, times):
            return np.stack([load_vector(system, lambda p: fn(float(t), p)) for t in times])

        data, times = SweepData(spec, system, grid), grid.times[:-1]
        # level n of the forcing table is [load(f0(t_n)); load(f1(t_n))]
        forcing = np.stack([rows(spec.forcing.mean, times), rows(spec.forcing.slope, times)], axis=1)
        assert data.forcing.shape == forcing.shape == (grid.N, 2, system.n)
        assert data.forcing.tobytes() == forcing.tobytes()
        assert data.sigma.tobytes() == rows(spec.sigma, times).tobytes()
        w_bar = ens.brownian.mean(axis=0)
        for ensemble in (None, ens):
            expected = np.zeros((grid.N + 1, system.n))
            expected[1:] = rows(spec.target.mean, grid.times[1:])
            if ensemble is not None:
                for n, slope in enumerate(rows(spec.target.slope, grid.times[1:]), start=1):
                    expected[n] += w_bar[n] * slope
            got = mean_target_loads(spec, system, grid, ensemble)
            assert got.tobytes() == expected.tobytes()


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

    def test_rank_deficient_basis_is_numerical_error(self, setup_small):
        system, grid, _ = setup_small
        increments = np.zeros((4, grid.N))
        increments[:, 0] = [1.0, 1.0, np.nextafter(1.0, 2.0), 1.0]  # W_{t_1} one ulp apart
        ens = BrownianEnsemble(tau=grid.tau, seed=0, increments=increments)
        assert np.ptp(ens.brownian_at(1)) > 0.0  # not the constant-only fallback
        payoff = np.ones((ens.paths, system.n))
        with pytest.raises(NumericalError, match="rank-deficient regression basis"):
            lsmc_z_estimate(system, grid, ens, payoff, level=1)

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
            alpha=1.0, T=1.0, x0=zero_space,
            sigma=lambda t, p: np.zeros(p.shape[0]),
            forcing=ZERO_DATA,
            target=ZERO_DATA,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)
