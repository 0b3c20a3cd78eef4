import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from socfem import (
    NumericalError,
    OptimizerConfig,
    assemble,
    constraint_integral,
    contraction_certificate,
    example1,
    make_interval_mesh,
    make_time_grid,
    sample,
    select_multiplier,
)
from socfem import spde
from socfem.analysis import Resolution, setup
from socfem.fem import FemSystem
from socfem.optimizer import GradientProjection
from socfem.spde import AffineInW
from socfem.problems import BY_NAME

from helpers import path_states, scipy_csr


@pytest.fixture(scope="module")
def coarse():
    prob = example1()
    system, grid = setup(prob, Resolution(16, 16))
    return prob, system, grid


class TestConstraintIntegral:
    def test_zero(self, coarse):
        _, system, grid = coarse
        assert constraint_integral(np.zeros((grid.N + 1, system.n)), system, grid) == 0.0

    def test_constant_in_time(self, coarse):
        _, system, grid = coarse
        rng = np.random.default_rng(0)
        v = rng.normal(size=system.n)
        traj = np.tile(v, (grid.N + 1, 1))
        expected = grid.T * (system.ones_load @ v)
        assert constraint_integral(traj, system, grid) == pytest.approx(expected, rel=1e-13)

    def test_exact_state_means_near_delta(self, coarse):
        prob, system, grid = coarse
        pts = system.mesh.interior_nodes
        vals = np.stack([prob.exact_x.mean(t, pts) for t in grid.times])
        integral = constraint_integral(vals, system, grid)
        # right-endpoint rule + interpolation leave an O(h + tau) gap
        assert abs(integral - prob.delta) <= grid.tau + system.mesh.h**2


class TestSelectMultiplier:
    def test_feasible_half_step(self):
        assert select_multiplier(0.1, 0.2, 0.5, 1.0) == 0.0

    def test_formula(self):
        assert select_multiplier(0.25, 0.2, 0.5, 1.0) == pytest.approx(0.1, rel=1e-15)

    def test_nonpositive_denominator(self):
        with pytest.raises(NumericalError):
            select_multiplier(0.25, 0.2, 0.5, 0.0)
        with pytest.raises(NumericalError):
            select_multiplier(0.25, 0.2, -1.0, 1.0)


class TestCertificate:
    def test_first_branch(self):
        assert contraction_certificate(1.0, 1.0, 0.2) == pytest.approx(0.8, rel=1e-14)

    def test_second_branch(self):
        f = 0.09 * 2.0 * (1.0 + 2.0 * np.e) - 0.3 * 4.0 + 1.0
        assert 0.0 < f < 1.0
        assert contraction_certificate(1.0, 1.0, 0.3) == pytest.approx(np.sqrt(f), rel=1e-13)

    def test_rejection(self):
        assert 0.5 >= 2.0 / (1.0 + 2.0 * np.e)
        assert contraction_certificate(1.0, 1.0, 0.5) is None
        assert contraction_certificate(1.0, 1.0, -0.1) is None


class TestProjection:
    def test_active_case_pins_integral(self, coarse):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid)
        rng = np.random.default_rng(1)
        control = rng.normal(size=(grid.N + 1, system.n))
        u_proj, x_proj, mu = loop.project(control, prob.delta)
        if mu > 0.0:
            integral = constraint_integral(x_proj, system, grid)
            assert abs(integral - prob.delta) <= 1e-8
        assert constraint_integral(x_proj, system, grid) <= prob.delta + 1e-8

    def test_feasible_control_untouched(self, coarse):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid)
        control = np.full((grid.N + 1, system.n), -5.0)
        u_proj, _, mu = loop.project(control, prob.delta)
        assert mu == 0.0
        assert np.array_equal(u_proj, control)

    def test_nonexpansiveness(self, coarse):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=(grid.N + 1, system.n))
            p = rng.normal(size=(grid.N + 1, system.n))
            pv, _, _ = loop.project(v, prob.delta)
            pp, _, _ = loop.project(p, prob.delta)
            lhs = loop.step_norm(pv - pp)
            rhs = loop.step_norm(v - p)
            assert lhs <= rhs + 1e-9


class TestWorkspaceAliasing:
    """Runs share the workspace's scratch tables but own every array they return."""

    FIELDS = ("control", "state_mean", "adjoint_mean")

    # one and two iterations end on either buffer of the swapped pairs
    @pytest.mark.parametrize("max_iter", [1, 2, 500])
    def test_second_delta_leaves_first_result_intact(self, coarse, max_iter):
        prob, system, grid = coarse
        config = OptimizerConfig(max_iter=max_iter)
        loop = GradientProjection(prob.spec, system, grid, config)
        first = loop.run(0.2)
        kept = {name: getattr(first, name).copy() for name in self.FIELDS}
        second = loop.run(-0.1)
        assert first.mu > 0.0 and second.mu > 0.0
        fresh = GradientProjection(prob.spec, system, grid, config).run(0.2)
        tables = system.sweep_tables(grid.N)
        for name in self.FIELDS:
            values = getattr(first, name)
            assert np.array_equal(values, kept[name])
            assert np.array_equal(values, getattr(fresh, name))
            mates = [getattr(first, f) for f in self.FIELDS if f != name]
            for other in [getattr(second, f) for f in self.FIELDS] + mates + [
                tables.rows, tables.transposed
            ]:
                assert not np.shares_memory(values, other)

    def test_project_returns_new_arrays(self, coarse):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid)
        control = np.random.default_rng(3).normal(size=(grid.N + 1, system.n))
        u1, x1, mu = loop.project(control, -5.0)
        u2, x2, _ = loop.project(control, -5.0)
        assert mu > 0.0
        for a in (u1, x1):
            for b in (u2, x2, control):
                assert not np.shares_memory(a, b)
        assert np.array_equal(u1, u2) and np.array_equal(x1, x2)


PROPERTY_PROB = example1()
PROPERTY_SYSTEM, PROPERTY_GRID = setup(PROPERTY_PROB, Resolution(12, 12))
PROPERTY_LOOP = GradientProjection(PROPERTY_PROB.spec, PROPERTY_SYSTEM, PROPERTY_GRID)
seeds = st.integers(0, 2**32 - 1)


class TestProjectionProperties:
    @given(s1=seeds, s2=seeds, scale=st.floats(0.1, 10.0), delta=st.floats(-2.0, 2.0))
    def test_feasible_and_nonexpansive(self, s1, s2, scale, delta):
        loop, system, grid = PROPERTY_LOOP, PROPERTY_SYSTEM, PROPERTY_GRID
        shape = (grid.N + 1, system.n)
        v = scale * np.random.default_rng(s1).normal(size=shape)
        p = scale * np.random.default_rng(s2).normal(size=shape)
        pv, xv, _ = loop.project(v, delta)
        pp, xp, _ = loop.project(p, delta)
        for x in (xv, xp):
            assert constraint_integral(x, system, grid) <= delta + 1e-8
        lhs = loop.step_norm(pv - pp)
        rhs = loop.step_norm(v - p)
        assert lhs <= rhs + 1e-9


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestMonteCarloWorkspace:
    """The Monte Carlo workspace equals the path average it replaces."""

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(40, 40)), ("example2", Resolution(8, 8))]
    )
    def test_base_and_target_loads_are_path_averages(self, name, res):
        prob = BY_NAME[name]()
        system, grid = setup(prob, res)
        ens = sample(64, grid, seed=5)
        loop = GradientProjection(prob.spec, system, grid, ensemble=ens)
        zero = np.zeros((grid.N + 1, system.n))
        states = path_states(prob.spec, system, grid, zero, ens)
        assert _max_rel(loop.base, states.mean(axis=0)) <= 1e-12

        # every path's target values at the quadrature points, loaded and averaged
        xd, qp = prob.spec.target, system.quad_points
        loads = np.zeros_like(loop.target_loads)
        load_matrix = scipy_csr(system.load_matrix)
        for n in range(1, grid.N + 1):
            t = float(grid.times[n])
            values = xd.mean(t, qp) + ens.brownian_at(n)[:, None] * xd.slope(t, qp)
            loads[n] = (values @ load_matrix.T).mean(axis=0)
        assert _max_rel(loop.target_loads, loads) <= 1e-12


class TestGpIterate:
    def test_converges_and_stays_feasible(self, coarse):
        prob, system, grid = coarse
        config = OptimizerConfig(eps0=1e-6)
        res = GradientProjection(prob.spec, system, grid, config).run(prob.delta)
        assert res.converged
        assert res.mu >= 0.0
        for rec in res.records:
            assert rec.constraint_integral <= prob.delta + 1e-8
            assert rec.step_error >= 0.0
            assert rec.mu >= 0.0

    def test_slack_constraint_keeps_mu_zero(self, coarse):
        prob, system, grid = coarse
        res = GradientProjection(prob.spec, system, grid, OptimizerConfig(eps0=1e-8)).run(10.0)
        assert res.converged
        assert all(rec.mu == 0.0 for rec in res.records)
        integral = res.records[-1].constraint_integral
        assert abs(integral - 1 / np.pi) <= grid.tau + system.mesh.h

    def test_monotone_cost_with_certified_rho(self, coarse):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid, OptimizerConfig(rho=0.2, eps0=1e-9))
        scratch, costs = np.empty_like(loop.base), []
        res = loop.run(prob.delta, lambda rec, u, x: costs.append(loop.cost(x, u, scratch)))
        assert len(costs) == res.iterations > 1
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("max_iter", [1, 2, 500])
    def test_observer_sees_each_record_and_its_live_iterate(self, coarse, max_iter):
        prob, system, grid = coarse
        loop = GradientProjection(prob.spec, system, grid, OptimizerConfig(max_iter=max_iter))
        seen = []
        res = loop.run(prob.delta, lambda rec, u, x: seen.append((rec, u.copy(), x.copy())))
        assert [rec for rec, _, _ in seen] == res.records
        _, u, x = seen[-1]
        assert np.array_equal(u, res.control) and np.array_equal(x, res.state_mean)
        # the observer changes nothing the run returns
        plain = loop.run(prob.delta)
        assert plain.records == res.records
        for name in ("control", "state_mean", "adjoint_mean"):
            assert getattr(plain, name).tobytes() == getattr(res, name).tobytes()

    def test_config_rho_reaches_the_loop(self):
        # example1 at 10 x 10 from the zero control: the loop takes 148
        # iterations at rho = 0.05 and 34 at the default 0.9/(alpha + e^T)
        prob = example1()
        system, grid = setup(prob, Resolution(10, 10))
        slow = GradientProjection(prob.spec, system, grid, OptimizerConfig(rho=0.05))
        default = GradientProjection(prob.spec, system, grid)
        assert slow.rho == 0.05
        assert default.rho == 0.9 / (prob.spec.alpha + math.exp(prob.spec.T))
        assert slow.run(0.2).iterations == 148
        assert default.run(0.2).iterations == 34

    def test_max_iter_reports_nonconverged(self, coarse):
        prob, system, grid = coarse
        config = OptimizerConfig(eps0=1e-14, max_iter=3)
        res = GradientProjection(prob.spec, system, grid, config).run(prob.delta)
        assert not res.converged
        assert res.iterations == 3

    def test_adjoint_consistent_with_optimality(self, coarse):
        # at convergence alpha*u + ytilde + mu*mtilde = 0, so the full
        # adjoint equals -alpha*u
        prob, system, grid = coarse
        config = OptimizerConfig(eps0=1e-11, max_iter=400)
        res = GradientProjection(prob.spec, system, grid, config).run(prob.delta)
        gap = res.adjoint_mean[: grid.N] + prob.spec.alpha * res.control[: grid.N]
        assert np.abs(gap).max() <= 1e-9

    def test_monte_carlo_estimator_matches_mean_field_without_noise(self):
        prob = example1(beta=0.0)  # zero noise: every path equals the mean
        system, grid = setup(prob, Resolution(12, 12))
        ens = sample(8, grid, seed=4)
        config = OptimizerConfig(eps0=1e-8)
        mf = GradientProjection(prob.spec, system, grid, config).run(prob.delta)
        mc = GradientProjection(prob.spec, system, grid, config, ens).run(prob.delta)
        assert mc.iterations == mf.iterations
        assert np.abs(mc.control - mf.control).max() <= 1e-10
        assert mc.mu == pytest.approx(mf.mu, rel=1e-8)


class TestWorkBudget:
    """The loop does only the work its results need."""

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_sweeps_per_workspace_and_run(self, coarse, monkeypatch, max_iter):
        # a workspace sweeps Mtilde, Qtilde and the data response; a run of
        # k iterations sweeps k adjoints and k states, and the final adjoint
        # once, when the result's adjoint_mean is first read
        prob, system, grid = coarse
        calls, real = [], spde._row_sweep

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(spde, "_row_sweep", counted)
        config = OptimizerConfig(eps0=1e-14, max_iter=max_iter)
        loop = GradientProjection(prob.spec, system, grid, config)
        assert len(calls) == 3
        res = loop.run(prob.delta)
        assert res.iterations == max_iter
        assert len(calls) == 3 + 2 * max_iter
        adjoint = res.adjoint_mean
        assert len(calls) == 3 + 2 * max_iter + 1
        assert res.adjoint_mean is adjoint
        assert len(calls) == 3 + 2 * max_iter + 1

    def test_run_allocates_three_tables(self):
        # a run owns the control, the mean state and the next control; the
        # rest it allocates is O(n + N) vectors and numpy's iterator buffers
        # (at most 8,192 elements per operand), within SLACK bytes
        SLACK = 128 * 1024
        prob = BY_NAME["example2"]()
        system, grid = setup(prob, Resolution(30, 30))
        loop = GradientProjection(prob.spec, system, grid, OptimizerConfig(max_iter=3))
        table = (grid.N + 1) * system.n * 8
        assert table > SLACK
        tracemalloc.start()
        try:
            loop.run(prob.delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 3 * table <= peak <= 3 * table + SLACK

    def test_target_projection_waits_for_cost(self, coarse, monkeypatch):
        prob, system, grid = coarse
        shapes, real = [], FemSystem.mass_solve

        def counted(self, rhs):
            shapes.append(rhs.shape)
            return real(self, rhs)

        monkeypatch.setattr(FemSystem, "mass_solve", counted)
        loop = GradientProjection(prob.spec, system, grid)
        res = loop.run(prob.delta)
        assert shapes == [(system.n,)]  # the projected initial state alone
        loop.cost(res.state_mean, res.control, np.empty_like(res.control))
        loop.cost(res.state_mean, res.control, np.empty_like(res.control))
        assert shapes == [(system.n,), (system.n, grid.N)]

    @pytest.mark.parametrize("name,paths", [("example1", 0), ("example1", 4), ("example2", 0)])
    def test_run_starts_from_the_zero_controls_state(self, name, paths):
        # the zero control's response is +0.0 everywhere, so run skips its
        # sweep and starts from base + 0.0: the same bits, signed zeros too
        prob = BY_NAME[name]()
        system, grid = setup(prob, Resolution(6, 6))
        ensemble = sample(paths, grid, seed=2) if paths else None
        loop = GradientProjection(prob.spec, system, grid, ensemble=ensemble)
        zero = np.zeros((grid.N + 1, system.n))
        assert loop.state_mean(zero).tobytes() == np.add(loop.base, 0.0).tobytes()

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(8, 8)), ("example2", Resolution(4, 4))]
    )
    def test_mean_field_workspace_reads_only_the_means(self, name, res):
        prob = BY_NAME[name]()
        system, grid = setup(prob, res)
        calls = Counter()

        def counted(key, fn):
            def wrapper(t, pts):
                calls[key] += 1
                return fn(t, pts)
            return wrapper

        given = prob.spec
        spec = replace(
            given,
            sigma=counted("sigma", given.sigma),
            forcing=AffineInW(counted("forcing.mean", given.forcing.mean),
                              counted("forcing.slope", given.forcing.slope)),
            target=AffineInW(counted("target.mean", given.target.mean),
                             counted("target.slope", given.target.slope)),
        )
        GradientProjection(spec, system, grid)
        assert calls == {"forcing.mean": grid.N, "target.mean": grid.N}
        calls.clear()
        GradientProjection(spec, system, grid, ensemble=sample(4, grid, seed=1))
        assert calls == {key: grid.N for key in (
            "sigma", "forcing.mean", "forcing.slope", "target.mean", "target.slope"
        )}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho=0.0), dict(eps0=0.0), dict(max_iter=0),
            # each of these would construct and then fail or stop early in run
            dict(max_iter=2.5), dict(eps0=float("inf")), dict(rho=float("inf")),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)
