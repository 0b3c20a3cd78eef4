from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from socfem import (
    NumericalError,
    assemble,
    euler_solve,
    l2_project,
    load_vector,
    make_interval_mesh,
    make_rectangle_mesh,
    norms,
)
from socfem.fem import EulerSolver, _CheckedCholesky, load_from_values


@pytest.fixture
def sys_half():
    return assemble(make_interval_mesh(0, 1, 2))


@pytest.fixture
def sys_quarter():
    return assemble(make_interval_mesh(0, 1, 4))


class TestAssembly:
    def test_single_interior_node(self, sys_half):
        assert sys_half.mass.toarray().item() == pytest.approx(1 / 3, abs=1e-15)
        assert sys_half.stiffness.toarray().item() == pytest.approx(4.0, abs=1e-13)

    def test_quarter_tridiagonal(self, sys_quarter):
        m = sys_quarter.mass.toarray()
        a = sys_quarter.stiffness.toarray()
        expected_m = np.array(
            [[1 / 6, 1 / 24, 0], [1 / 24, 1 / 6, 1 / 24], [0, 1 / 24, 1 / 6]]
        )
        expected_a = np.array([[8, -4, 0], [-4, 8, -4], [0, -4, 8]], dtype=float)
        assert m == pytest.approx(expected_m, abs=1e-12)
        assert a == pytest.approx(expected_a, abs=1e-12)

    def test_2d_five_point_equivalence(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 2, 2))
        assert system.stiffness.toarray().item() == pytest.approx(4.0, abs=1e-12)

    def test_rejects_no_interior(self):
        with pytest.raises(ValueError):
            assemble(make_interval_mesh(0, 1, 1))

    @pytest.mark.parametrize(
        "mesh",
        [make_interval_mesh(0, 1, 17), make_rectangle_mesh((0, 0), (2, 1), 6, 5)],
    )
    def test_symmetry_and_positivity(self, mesh):
        system = assemble(mesh)
        m = system.mass.toarray()
        a = system.stiffness.toarray()
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
        assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
        assert np.all(np.asarray(system.mass.sum(axis=1)) > 0)
        np.linalg.cholesky(m)  # SPD
        rng = np.random.default_rng(0)
        x = rng.normal(size=system.n)
        assert x @ (m @ x) > 0

    def test_stiffness_annihilates_linear_away_from_boundary(self):
        mesh = make_interval_mesh(0, 1, 8)
        system = assemble(mesh)
        v = mesh.interior_nodes[:, 0]  # nodal values of f(x) = x
        r = system.stiffness @ v
        assert np.abs(r[1:-1]).max() <= 1e-12  # boundary-only residual


class TestL2Projection:
    def test_zero(self, sys_quarter):
        p = l2_project(sys_quarter, lambda x: np.zeros(x.shape[0]))
        assert np.abs(p).max() == 0.0

    def test_hat_function_is_reproduced(self, sys_quarter):
        # projecting a member of the space returns its coefficient vector
        def hat(x):
            return np.maximum(0.0, 1.0 - np.abs(x[..., 0] - 0.5) / 0.25)

        p = l2_project(sys_quarter, hat)
        assert p == pytest.approx([0, 1, 0], abs=1e-10)

    def test_sine_against_independent_quadrature_oracle(self, sys_quarter):
        # oracle: dense assembly with adaptive quadrature (scipy.integrate.quad);
        # tolerance is the module's 3-point-Gauss load error on sin at h = 1/4
        oracle = np.array([0.74414989, 1.05238686, 0.74414989])
        p = l2_project(sys_quarter, lambda x: np.sin(np.pi * x[..., 0]))
        assert p == pytest.approx(oracle, abs=2e-6)
        interp = np.sin(np.pi * sys_quarter.mesh.interior_nodes[:, 0])
        assert np.abs(p - interp).max() <= 0.06  # O(h^2) gap at h = 1/4

    def test_galerkin_orthogonality(self, sys_quarter):
        g = lambda x: np.exp(x[..., 0]) * np.cos(3 * x[..., 0])
        p = l2_project(sys_quarter, g)
        residual = sys_quarter.mass @ p - load_vector(sys_quarter, g)
        assert np.abs(residual).max() <= 1e-10


class TestLoadVector:
    def test_unit_load_half(self, sys_half):
        assert load_vector(sys_half, lambda x: np.ones(x.shape[0])) == pytest.approx(
            [0.5], abs=1e-14
        )

    def test_zero(self, sys_half):
        assert np.abs(load_vector(sys_half, lambda x: np.zeros(x.shape[0]))).max() == 0.0

    def test_unit_load_quarter(self, sys_quarter):
        b = load_vector(sys_quarter, lambda x: np.ones(x.shape[0]))
        assert b == pytest.approx([0.25, 0.25, 0.25], abs=1e-14)

    def test_unit_load_2d_center(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 2, 2))
        assert load_vector(system, lambda x: np.ones(x.shape[0])) == pytest.approx(
            [0.25], abs=1e-14
        )

    def test_batched_values_match(self, sys_quarter):
        vals = np.vstack([np.ones(sys_quarter.quad_points.shape[0]) * c for c in (1.0, 2.0)])
        loads = load_from_values(sys_quarter, vals)
        assert loads[1] == pytest.approx(2 * loads[0], rel=1e-15)


class TestEulerSolve:
    def test_hand_oracle(self, sys_half):
        x = euler_solve(sys_half, 0.5, np.array([1 / 3]))
        assert x == pytest.approx([1 / 7], abs=1e-12)

    def test_zero_rhs(self, sys_quarter):
        assert np.abs(euler_solve(sys_quarter, 0.3, np.zeros(3))).max() == 0.0

    def test_factorization_cache_refreshes(self, sys_quarter):
        rhs = np.array([1.0, -2.0, 0.5])
        x1 = euler_solve(sys_quarter, 0.1, rhs)
        x2 = euler_solve(sys_quarter, 0.2, rhs)
        fresh = assemble(make_interval_mesh(0, 1, 4))
        assert x1 == pytest.approx(euler_solve(fresh, 0.1, rhs), abs=0)
        assert x2 == pytest.approx(euler_solve(fresh, 0.2, rhs), abs=0)

    def test_linearity(self, sys_quarter):
        rng = np.random.default_rng(3)
        r1, r2 = rng.normal(size=(2, 3))
        a, b = 1.7, -0.4
        lhs = euler_solve(sys_quarter, 0.05, a * r1 + b * r2)
        rhs = a * euler_solve(sys_quarter, 0.05, r1) + b * euler_solve(sys_quarter, 0.05, r2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_matrix_rhs(self, sys_quarter):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(3, 5))
        batched = euler_solve(sys_quarter, 0.2, block)
        for j in range(5):
            assert batched[:, j] == pytest.approx(
                euler_solve(sys_quarter, 0.2, block[:, j]), abs=0
            )

    def test_invalid_tau(self, sys_half):
        with pytest.raises(ValueError):
            euler_solve(sys_half, 0.0, np.array([1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rhs_fails_residual_guard(self, sys_half, value):
        with pytest.raises(NumericalError):
            euler_solve(sys_half, 0.5, np.array([value]))
        with pytest.raises(NumericalError, match="mass solve residual"):
            sys_half.mass_solve(np.full(sys_half.n, value))

    def test_singular_operator_fails_factorization(self):
        zero = sp.csr_matrix((2, 2))
        with pytest.raises(NumericalError):
            EulerSolver(SimpleNamespace(mass=zero, stiffness=zero), 0.5)

    def test_indefinite_operator_fails_factorization(self):
        indefinite = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        zero = sp.csr_matrix((2, 2))
        with pytest.raises(NumericalError, match="implicit-Euler factorization failed"):
            EulerSolver(SimpleNamespace(mass=indefinite, stiffness=zero), 0.5)


def _bandwidth(chol) -> int:
    return chol._factor.shape[0] - 1  # the factor keeps the band's kd + 1 rows


class TestBandedCholesky:
    def test_bandwidth_interval(self):
        system = assemble(make_interval_mesh(0, 1, 9))
        assert _bandwidth(_CheckedCholesky(system.mass, "mass")) == 1
        assert _bandwidth(system.euler_solver(0.1)._chol) == 1

    @pytest.mark.parametrize("cells", [3, 6, 8])
    def test_bandwidth_rectangle(self, cells):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), cells, cells))
        assert _bandwidth(_CheckedCholesky(system.mass, "mass")) == cells
        assert _bandwidth(system.euler_solver(0.1)._chol) == cells

    def test_2d_solve_matches_dense(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8))
        rhs = np.random.default_rng(5).normal(size=system.n)
        dense = (system.mass + 0.05 * system.stiffness).toarray()
        oracle = np.linalg.solve(dense, rhs)
        x = euler_solve(system, 0.05, rhs)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_2d_matrix_rhs_equals_columns(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8))
        block = np.random.default_rng(6).normal(size=(system.n, 4))
        batched = euler_solve(system, 0.05, block)
        for j in range(4):
            assert np.array_equal(batched[:, j], euler_solve(system, 0.05, block[:, j]))


class TestNorms:
    def test_zero(self, sys_half):
        assert norms(sys_half, np.zeros(1)) == (0.0, 0.0)

    def test_hand_values(self, sys_half):
        l2, h1 = norms(sys_half, np.array([1.0]))
        assert l2 == pytest.approx(np.sqrt(1 / 3), rel=1e-14)
        assert h1 == pytest.approx(2.0, rel=1e-14)

    def test_homogeneity(self, sys_quarter):
        x = np.array([0.3, -1.2, 0.7])
        l2, h1 = norms(sys_quarter, x)
        l22, h12 = norms(sys_quarter, 2 * x)
        assert (l22, h12) == pytest.approx((2 * l2, 2 * h1), rel=1e-14)

    def test_shape_mismatch(self, sys_quarter):
        with pytest.raises(ValueError):
            norms(sys_quarter, np.zeros(5))
