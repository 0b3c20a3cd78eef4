import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import socfem.fem
import socfem.spde
from socfem import (
    GradientProjection,
    NumericalError,
    OptimizerConfig,
    Resolution,
    assemble,
    compute_errors,
    constraint_table,
    convergence_study,
    discrete_constraint_level,
    example1,
    fit_order,
    make_interval_mesh,
    make_rectangle_mesh,
    sample,
)
from socfem.analysis import (
    _fd_gradient,
    _FieldErrors,
    _level_errors,
    _state_errors,
    orders_from_reports,
    setup,
)
from socfem.paths import BLOCK
from socfem.problems import BY_NAME, ManufacturedProblem

from helpers import gp_result, h1_error_sq, path_states, scipy_csr


class TestFitOrder:
    def test_linear(self):
        fit = fit_order([(x, 3 * x) for x in (0.1, 0.05, 0.025)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_quadratic(self):
        fit = fit_order([(x, x**2) for x in (0.2, 0.1, 0.05, 0.025)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_scaling_invariance(self):
        pts = [(0.1, 0.3), (0.05, 0.17), (0.025, 0.08)]
        base = fit_order(pts)
        scaled = fit_order([(x, 7.3 * e) for x, e in pts])
        assert scaled.slope == pytest.approx(base.slope, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 0.2)])

    def test_needs_two_distinct_scales(self):
        with pytest.raises(ValueError, match="distinct scales"):
            fit_order([(0.1, 0.2), (0.1, 0.3)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 0.0), (0.05, 0.1)])


def _measure(system, x, exact_eval):
    """``_FieldErrors`` of the columns of x (n, k) against ``exact_eval``,
    which maps points (m, dim) to values (m, k)."""
    errors = _FieldErrors(system, x.shape[1])
    errors.exact[...] = exact_eval(system.mesh.interior_nodes)
    return errors(x, lambda axis, out: np.copyto(out, _fd_gradient(system, exact_eval, axis)))


class TestFieldErrors:
    def test_member_of_space_is_reproduced(self):
        # the center hat function lies in the P1 space; quadrature points sit
        # strictly inside elements, so the FD gradient never crosses a kink
        system = assemble(make_interval_mesh(0, 1, 8))
        h = system.mesh.h

        def hat(p):
            return np.maximum(0.0, 1.0 - np.abs(p[..., 0] - 0.5) / h)[:, None]

        nodal = np.zeros((system.n, 1))
        nodal[system.n // 2] = 1.0
        l2, h1 = _measure(system, nodal, hat)
        assert l2[0] <= 1e-30
        assert h1[0] <= 1e-16

    def test_matches_refined_quadrature_on_smooth_field(self):
        # spot-check the mass/stiffness norms against the quadrature-based
        # error of a fine reference: for v = sin(pi x), the H1 gap between
        # nodal interpolation and v is (pi h / sqrt(12)) |sin|_{H1}-ish
        system = assemble(make_interval_mesh(0, 1, 16))
        nodal = np.sin(np.pi * system.mesh.interior_nodes)
        _, h1 = _measure(system, nodal, lambda p: np.sin(np.pi * p[:, :1]))
        expected = np.pi**2 / np.sqrt(12) * (1 / 16) * np.sqrt(0.5)
        assert np.sqrt(h1[0]) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize(
        "mesh", [make_interval_mesh(0, 1, 6), make_rectangle_mesh((0, 0), (1, 2), 4, 5)]
    )
    def test_one_result_per_column(self, mesh):
        system = assemble(mesh)
        x = np.random.default_rng(2).normal(size=(system.n, 5))
        scales = np.arange(1.0, 6.0)

        def exact(p):
            return np.sin(np.pi * p[:, :1]) * np.cos(p[:, -1:]) * scales

        l2, h1 = _measure(system, x, exact)
        assert l2.shape == h1.shape == (5,)
        for j in range(5):
            e = x[:, j] - exact(system.mesh.interior_nodes)[:, j]
            assert l2[j] == pytest.approx(e @ (scipy_csr(system.mass) @ e), rel=1e-12)
            assert h1[j] == pytest.approx(
                h1_error_sq(system, x[:, j], lambda p: exact(p)[:, j]), rel=1e-12
            )


@pytest.fixture(scope="module")
def small_run():
    prob = example1()
    system, grid = setup(prob, Resolution(16, 16))
    ens = sample(200, grid, seed=7)
    pts = system.mesh.interior_nodes
    control = np.stack([prob.exact_u(t, pts) for t in grid.times[:-1]] + [np.zeros(system.n)])
    adjoint = np.stack([prob.exact_y(t, pts) for t in grid.times])
    return prob, system, grid, ens, control, adjoint


class TestComputeErrors:
    def test_self_comparison_floor(self, small_run, monkeypatch):
        prob, system, grid, ens, control, adjoint = small_run
        pts = system.mesh.interior_nodes

        def exact_paths(spec, system, grid, control, sub, data):
            for n in range(grid.N + 1):
                t, w = float(grid.times[n]), sub.brownian_at(n)[:, None]
                yield n, (prob.exact_x.mean(t, pts) + w * prob.exact_x.slope(t, pts)).T

        # the streamed path sweep is fed the exact per-path states
        monkeypatch.setattr("socfem.analysis.iter_forward_paths", exact_paths)
        rep = compute_errors(prob, gp_result(control, adjoint, prob.exact_mu), ens, system, grid)
        assert rep.strong_l2_state <= 1e-12
        assert rep.strong_l2_adjoint <= 1e-12
        assert rep.strong_l2_control <= 1e-12
        assert rep.mu_error == 0.0
        # the H1 fields report the interpolation floor, not zero
        assert 0.0 < rep.h1_state <= np.pi * system.mesh.h
        assert 0.0 < rep.h1_adjoint <= np.pi * system.mesh.h

    def test_homogeneous_in_deviation(self, small_run):
        prob, system, grid, ens, control, adjoint = small_run
        rng = np.random.default_rng(5)
        d_u = rng.normal(size=control.shape)
        d_y = rng.normal(size=adjoint.shape)

        def report(scale):
            result = gp_result(
                control + scale * d_u, adjoint + scale * d_y, prob.exact_mu + scale * 0.25
            )
            return compute_errors(prob, result, ens, system, grid)

        r1, r2 = report(1.0), report(2.0)
        assert r2.strong_l2_control == pytest.approx(2 * r1.strong_l2_control, rel=1e-12)
        assert r2.strong_l2_adjoint == pytest.approx(2 * r1.strong_l2_adjoint, rel=1e-12)
        # exact up to the fixed interpolation floor inside the H1 quadrature
        assert r2.h1_adjoint == pytest.approx(2 * r1.h1_adjoint, rel=1e-5)
        assert r2.mu_error == pytest.approx(2 * r1.mu_error, rel=1e-12)

    def test_streamed_states_match_materialized(self, small_run):
        prob, system, grid, ens, control, adjoint = small_run
        states = path_states(prob.spec, system, grid, control, ens)
        pts = system.mesh.interior_nodes
        l2_sq = np.zeros(grid.N + 1)
        h1_sq = np.zeros(grid.N + 1)
        for n in range(grid.N + 1):
            t, w = float(grid.times[n]), ens.brownian_at(n)[:, None]
            exact_x = lambda p: prob.exact_x.mean(t, p) + w * prob.exact_x.slope(t, p)
            e = states[:, n, :] - exact_x(pts)
            l2_sq[n] = np.einsum("pn,pn->", e, (scipy_csr(system.mass) @ e.T).T) / ens.paths
            h1_sq[n] = h1_error_sq(system, states[:, n, :], exact_x).sum() / ens.paths
        rep = compute_errors(prob, gp_result(control, adjoint, prob.exact_mu), ens, system, grid)
        assert rep.strong_l2_state == pytest.approx(np.sqrt(l2_sq.max()), rel=1e-12)
        assert rep.h1_state == pytest.approx(np.sqrt(grid.tau * h1_sq[1:].sum()), rel=1e-12)

    def test_peak_allocation_does_not_grow_with_steps(self):
        # the path states are consumed level by level as the sweep yields
        # them, and each block views the ensemble's prefix sums; a
        # (paths, N+1, n) history, or a (BLOCK, N+1) re-summed W per block,
        # would grow with N.  More than BLOCK paths, so blocks are subsets.
        prob = example1()

        def peak(steps):
            system, grid = setup(prob, Resolution(16, steps))
            ens = sample(2 * BLOCK, grid, seed=3)
            pts = system.mesh.interior_nodes
            control = np.stack([prob.exact_u(t, pts) for t in grid.times])
            adjoint = np.stack([prob.exact_y(t, pts) for t in grid.times])
            result = gp_result(control, adjoint, prob.exact_mu)
            tracemalloc.start()
            try:
                compute_errors(prob, result, ens, system, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100) <= 1.1 * peak(25)

    def test_path_blocks_share_the_nodal_loads(self, monkeypatch):
        # the forcing's [f0; f1] table and sigma are loaded once for the whole
        # ensemble, not once per block: one table of all levels each; x0 is
        # projected once
        prob = example1()
        system, grid = setup(prob, Resolution(8, 10))
        ens = sample(2 * BLOCK, grid, seed=3)
        pts = system.mesh.interior_nodes
        control = np.stack([prob.exact_u(t, pts) for t in grid.times])
        adjoint = np.stack([prob.exact_y(t, pts) for t in grid.times])
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, call)

        counted(socfem.fem, "load_vector")
        counted(socfem.spde, "_load_rows")
        compute_errors(prob, gp_result(control, adjoint, prob.exact_mu), ens, system, grid)
        assert sorted(calls) == ["_load_rows"] * 2 + ["load_vector"]

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(12, 10)), ("example2", Resolution(4, 6))]
    )
    def test_control_is_evaluated_once_per_level(self, name, res, monkeypatch):
        # the control is measured in L2 alone: exact_u at the nodes of each
        # of its N levels, and nowhere for gradients
        prob = BY_NAME[name]()
        system, grid = setup(prob, res)
        pts = system.mesh.interior_nodes
        control = np.stack([prob.exact_u(t, pts) for t in grid.times])
        adjoint = np.stack([prob.exact_y(t, pts) for t in grid.times])
        calls = []

        def exact_u(t, p):
            calls.append(t)
            return prob.exact_u(t, p)

        # the exact adjoint is -alpha * exact_u; it must not feed the counter
        uncounted = prob.exact_y
        monkeypatch.setattr(ManufacturedProblem, "exact_y", lambda self, t, p: uncounted(t, p))
        counted = replace(prob, exact_u=exact_u)
        result = gp_result(control, adjoint, prob.exact_mu)
        compute_errors(counted, result, sample(3, grid, seed=2), system, grid)
        assert len(calls) == grid.N

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(40, 40)), ("example2", Resolution(8, 8))]
    )
    def test_state_errors_match_per_path_fields(self, name, res):
        prob = BY_NAME[name]()
        system, grid = setup(prob, res)
        ens = sample(32, grid, seed=9)
        pts = system.mesh.interior_nodes
        control = np.stack([prob.exact_u(t, pts) for t in grid.times])
        l2_sq, h1_sq = _state_errors(prob, system, grid, control, ens)

        # every path against its own full field x0 + w x1, evaluated point by point
        states = path_states(prob.spec, system, grid, control, ens)
        l2_ref, h1_ref = np.zeros(grid.N + 1), np.zeros(grid.N + 1)
        x, mass = prob.exact_x, scipy_csr(system.mass)
        for n in range(grid.N + 1):
            t = float(grid.times[n])
            for p, w in enumerate(ens.brownian_at(n)):
                field = lambda q: x.mean(t, q) + w * x.slope(t, q)
                e = states[p, n] - field(pts)
                l2_ref[n] += e @ (mass @ e) / ens.paths
                h1_ref[n] += h1_error_sq(system, states[p, n], field) / ens.paths
        for got, want in ((l2_sq, l2_ref), (h1_sq, h1_ref)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "name,res", [("example1", Resolution(20, 20)), ("example2", Resolution(6, 6))]
    )
    def test_control_and_adjoint_errors_match_per_level_fields(self, name, res):
        prob = BY_NAME[name]()
        system, grid = setup(prob, res)
        pts, mass = system.mesh.interior_nodes, scipy_csr(system.mass)
        rng = np.random.default_rng(4)
        fields, refs = {}, {}
        for key, exact in (("control", prob.exact_u), ("adjoint", prob.exact_y)):
            fields[key] = np.stack([exact(t, pts) for t in grid.times])
            fields[key] += 0.1 * rng.normal(size=fields[key].shape)
            l2_ref, h1_ref = np.zeros(grid.N + 1), np.zeros(grid.N + 1)
            for n, t in enumerate(grid.times):
                e = fields[key][n] - exact(float(t), pts)
                l2_ref[n] = e @ (mass @ e)
                h1_ref[n] = h1_error_sq(system, fields[key][n], lambda q: exact(float(t), q))
            refs[key] = l2_ref, h1_ref
            # one evaluator call per field, its levels as columns
            got = _level_errors(system, exact, fields[key], grid.times)
            for g, want in zip(got, refs[key]):
                assert g.shape == (grid.N + 1,)
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

        # the reported errors: the control's levels 0..N-1, the adjoint's
        # L2 over every level and its H1 over 0..N-1
        result = gp_result(fields["control"], fields["adjoint"], prob.exact_mu)
        rep = compute_errors(prob, result, sample(4, grid, seed=1), system, grid)
        ctrl_l2, _ = refs["control"]
        adj_l2, adj_h1 = refs["adjoint"]
        assert rep.strong_l2_control == pytest.approx(np.sqrt(ctrl_l2[:-1].max()), rel=1e-12)
        assert rep.strong_l2_adjoint == pytest.approx(np.sqrt(adj_l2.max()), rel=1e-12)
        assert rep.h1_adjoint == pytest.approx(np.sqrt(grid.tau * adj_h1[:-1].sum()), rel=1e-12)

    def test_seed_stability_within_factor_two(self):
        prob = example1()
        system, grid = setup(prob, Resolution(20, 20))
        loop = GradientProjection(prob.spec, system, grid, OptimizerConfig(eps0=1e-6))
        res = loop.run(prob.delta)
        errs = []
        for seed in (7, 1234):
            rep = compute_errors(prob, res, sample(500, grid, seed), system, grid)
            errs.append(rep.strong_l2_state)
        assert max(errs) / min(errs) <= 2.0

    @pytest.mark.parametrize("max_iter", [2, 500], ids=["unconverged", "converged"])
    def test_reports_the_measured_run(self, max_iter):
        # converged and the last step error are the measured result's own
        prob = example1()
        system, grid = setup(prob, Resolution(8, 8))
        config = OptimizerConfig(eps0=1e-6, max_iter=max_iter)
        result = GradientProjection(prob.spec, system, grid, config).run(prob.delta)
        assert result.converged == (max_iter == 500)
        rep = compute_errors(prob, result, sample(4, grid, seed=1), system, grid)
        assert rep.converged is result.converged
        assert rep.step_error == result.records[-1].step_error


class TestConvergenceStudy:
    def test_reports_and_orders(self):
        prob = example1()
        reports = convergence_study(
            prob, [Resolution(8, 8), Resolution(16, 16)], paths=100, seed=7
        )
        assert [r.tau for r in reports] == [1 / 8, 1 / 16]
        fits = orders_from_reports(reports, scale="tau")
        assert set(fits) == {
            "strong_l2_state",
            "strong_l2_adjoint",
            "strong_l2_control",
            "mu_error",
            "h1_state",
            "h1_adjoint",
        }
        for fit in fits.values():
            assert np.isfinite(fit.slope)

    def test_orders_scale_validation(self):
        with pytest.raises(ValueError, match="scale"):
            orders_from_reports([], scale="x")

    def test_delta_mode_validation(self):
        with pytest.raises(ValueError):
            convergence_study(example1(), [Resolution(8, 8)], delta_mode="exotic")

    def test_estimator_validation(self):
        with pytest.raises(ValueError, match="estimator"):
            convergence_study(example1(), [Resolution(8, 8)], estimator="bogus")

    def test_no_resolutions_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("convergence_study started work")

        monkeypatch.setattr("socfem.analysis.setup", no_work)
        with pytest.raises(ValueError, match="at least one resolution"):
            convergence_study(example1(), [])

    def test_each_delta_mode_runs_at_its_level(self, monkeypatch):
        levels = []
        run = GradientProjection.run

        def recording_run(self, delta):
            levels.append(delta)
            return run(self, delta)

        monkeypatch.setattr(GradientProjection, "run", recording_run)
        prob, res = example1(), Resolution(8, 8)
        convergence_study(prob, [res], paths=20, delta_mode="problem")
        convergence_study(prob, [res], paths=20, delta_mode="discrete")
        assert levels == [prob.delta, discrete_constraint_level(prob, *setup(prob, res))]
        assert levels[0] != levels[1]

    def test_discrete_level_near_continuous(self):
        prob = example1()
        system, grid = setup(prob, Resolution(20, 20))
        level = discrete_constraint_level(prob, system, grid)
        assert abs(level - prob.delta) <= grid.tau


class TestConstraintTable:
    def test_slack_constraint(self):
        prob = example1()
        cells = constraint_table(prob, [10.0], [Resolution(16, 16)])
        (cell,) = cells
        assert cell.mu == 0.0
        assert cell.converged
        assert abs(cell.integral - 1 / np.pi) <= cell.tau + cell.h

    def test_active_rows_pin_to_delta(self):
        prob = example1()
        cells = constraint_table(
            prob, [0.2, -0.1], [Resolution(10, 10), Resolution(16, 16)]
        )
        assert len(cells) == 4
        for cell in cells:
            assert abs(cell.integral - cell.delta) <= 1e-8
            assert cell.integral <= cell.delta + 1e-8
            assert cell.mu > 0.0

    def test_estimator_validation(self):
        with pytest.raises(ValueError, match="estimator"):
            constraint_table(example1(), [0.2], [Resolution(8, 8)], estimator="bogus")

    def test_no_deltas_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("constraint_table started work")

        monkeypatch.setattr("socfem.analysis.setup", no_work)
        with pytest.raises(ValueError, match="at least one delta"):
            constraint_table(example1(), [], [Resolution(8, 8)])

    def test_no_resolutions_rejected_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("constraint_table started work")

        monkeypatch.setattr("socfem.analysis.setup", no_work)
        with pytest.raises(ValueError, match="at least one resolution"):
            constraint_table(example1(), [0.2], [])


class TestSharedWorkspace:
    """One workspace per resolution serves every delta of a table."""

    RESOLUTIONS = [Resolution(8, 8), Resolution(12, 12)]
    DELTAS = [0.2, 10.0, -0.1]

    @pytest.mark.parametrize("estimator", ["mean-field", "monte-carlo"])
    def test_cells_equal_standalone_runs(self, estimator):
        prob = example1()
        cells = constraint_table(
            prob, self.DELTAS, self.RESOLUTIONS, estimator=estimator, paths=64, seed=3
        )
        # deltas outer, resolutions inner
        assert [(c.delta, c.tau) for c in cells] == [
            (d, 1 / r.steps) for d in self.DELTAS for r in self.RESOLUTIONS
        ]
        cells = iter(cells)
        for delta in self.DELTAS:
            for res in self.RESOLUTIONS:
                system, grid = setup(prob, res)
                ensemble = sample(64, grid, 3) if estimator == "monte-carlo" else None
                alone = GradientProjection(prob.spec, system, grid, ensemble=ensemble).run(delta)
                cell = next(cells)
                assert cell.mu == alone.mu
                assert cell.integral == alone.records[-1].constraint_integral
                assert cell.iterations == alone.iterations
                assert cell.converged == alone.converged

    def test_one_setup_per_resolution(self, monkeypatch):
        calls = {"gp": 0, "sample": 0}
        init = GradientProjection.__init__

        def counted_init(self, *args, **kwargs):
            calls["gp"] += 1
            init(self, *args, **kwargs)

        def counted_sample(*args, **kwargs):
            calls["sample"] += 1
            return sample(*args, **kwargs)

        monkeypatch.setattr(GradientProjection, "__init__", counted_init)
        monkeypatch.setattr("socfem.analysis.sample", counted_sample)
        cells = constraint_table(
            example1(), self.DELTAS, self.RESOLUTIONS, estimator="monte-carlo", paths=32
        )
        assert len(cells) == 6
        assert calls == {"gp": 2, "sample": 2}

    def test_failure_names_the_cell(self):
        with pytest.raises(NumericalError) as info:
            config = OptimizerConfig(rho=5.0)
            constraint_table(example1(), [0.2, -0.1], [Resolution(10, 10)], config)
        assert str(info.value).startswith("cell delta=0.2 cells=10 steps=10: ")

    def test_convergence_failure_names_the_cell(self):
        # a convergence cell is named as a table cell is, without a delta
        resolutions = [Resolution(8, 8), Resolution(10, 10)]
        with pytest.raises(NumericalError) as info:
            convergence_study(example1(), resolutions, OptimizerConfig(rho=5.0), paths=20)
        assert str(info.value).startswith("cell cells=8 steps=8: gradient projection diverged")
