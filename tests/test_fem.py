from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from socfem import (
    Mesh,
    NumericalError,
    assemble,
    l2_project,
    load_vector,
    make_interval_mesh,
    make_rectangle_mesh,
)
from socfem.fem import (
    _PBTRF,
    _PBTRS,
    Csr,
    EulerSolver,
    _CheckedCholesky,
    _scipy_extension,
    csr_product,
    load_from_values,
)
from socfem.grid import element_volumes

from helpers import scipy_csr


@pytest.fixture
def sys_half():
    return assemble(make_interval_mesh(0, 1, 2))


@pytest.fixture
def sys_quarter():
    return assemble(make_interval_mesh(0, 1, 4))


class TestAssembly:
    def test_single_interior_node(self, sys_half):
        assert scipy_csr(sys_half.mass).toarray().item() == pytest.approx(1 / 3, abs=1e-15)
        assert scipy_csr(sys_half.stiffness).toarray().item() == pytest.approx(4.0, abs=1e-13)

    def test_quarter_tridiagonal(self, sys_quarter):
        m = scipy_csr(sys_quarter.mass).toarray()
        a = scipy_csr(sys_quarter.stiffness).toarray()
        expected_m = np.array(
            [[1 / 6, 1 / 24, 0], [1 / 24, 1 / 6, 1 / 24], [0, 1 / 24, 1 / 6]]
        )
        expected_a = np.array([[8, -4, 0], [-4, 8, -4], [0, -4, 8]], dtype=float)
        assert m == pytest.approx(expected_m, abs=1e-12)
        assert a == pytest.approx(expected_a, abs=1e-12)

    def test_2d_five_point_equivalence(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 2, 2))
        assert scipy_csr(system.stiffness).toarray().item() == pytest.approx(4.0, abs=1e-12)

    def test_rejects_no_interior(self):
        with pytest.raises(ValueError):
            assemble(make_interval_mesh(0, 1, 1))

    @pytest.mark.parametrize(
        "mesh",
        [make_interval_mesh(0, 1, 17), make_rectangle_mesh((0, 0), (2, 1), 6, 5)],
    )
    def test_symmetry_and_positivity(self, mesh):
        system = assemble(mesh)
        m = scipy_csr(system.mass).toarray()
        a = scipy_csr(system.stiffness).toarray()
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
        assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
        assert np.all(np.asarray(scipy_csr(system.mass).sum(axis=1)) > 0)
        np.linalg.cholesky(m)  # SPD
        rng = np.random.default_rng(0)
        x = rng.normal(size=system.n)
        assert x @ (m @ x) > 0

    def test_stiffness_annihilates_linear_away_from_boundary(self):
        mesh = make_interval_mesh(0, 1, 8)
        system = assemble(mesh)
        v = mesh.interior_nodes[:, 0]  # nodal values of f(x) = x
        r = scipy_csr(system.stiffness) @ v
        assert np.abs(r[1:-1]).max() <= 1e-12  # boundary-only residual


def _graded_interval() -> tuple:
    """Mesh arguments of [0, 1] cut at (i/9)^2: cells grow 17-fold left to
    right, and the boundary the mesh must find, its two end nodes."""
    x = np.linspace(0.0, 1.0, 10) ** 2
    elements = np.column_stack([np.arange(9), np.arange(1, 10)])
    boundary = np.zeros(10, dtype=bool)
    boundary[[0, -1]] = True
    return x[:, None], elements, float(np.diff(x).max()), boundary


def _moved_square() -> tuple:
    """Mesh arguments of the 6 x 5 unit-square triangulation with every
    interior node moved by up to a fifth of the pitch per axis, and the
    boundary the mesh must find, the unmoved template's."""
    template = make_rectangle_mesh((0, 0), (1, 1), 6, 5)
    nodes = np.array(template.nodes)
    moved = ~template.boundary_mask
    shift = np.random.default_rng(3).uniform(-0.2, 0.2, (np.count_nonzero(moved), 2))
    nodes[moved] += shift * [1 / 6, 1 / 5]
    elements = np.array(template.elements)
    pts = nodes[elements]
    h = np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2).max()
    return nodes, elements, float(h), np.array(template.boundary_mask)


@pytest.mark.parametrize("arguments", [_graded_interval, _moved_square])
class TestNonUniformMesh:
    """Assembly on meshes built straight from ``Mesh``, with unequal elements."""

    @staticmethod
    def _build(arguments):
        nodes, elements, h, _ = arguments()
        mesh = Mesh(nodes, elements, h)
        assert np.all(element_volumes(mesh) > 0)
        return mesh, assemble(mesh)

    @staticmethod
    def _inside_rows(mesh):
        """Interior rows whose basis support avoids the boundary: (n_interior,) bool."""
        near = np.zeros(mesh.n_nodes, dtype=bool)  # nodes sharing an element with the boundary
        near[mesh.elements[mesh.boundary_mask[mesh.elements].any(axis=1)]] = True
        inside = ~near[~mesh.boundary_mask]
        assert np.count_nonzero(inside) >= 2
        return inside

    @staticmethod
    def _linear(mesh):
        """Nodal values of 0.3 + x . slope and the slope, (dim,)."""
        slope = np.array([1.7, -0.6])[: mesh.dim]
        return 0.3 + mesh.nodes @ slope, slope

    def test_arrays_frozen_and_numbering_derived(self, arguments):
        nodes, elements, h, boundary = arguments()
        mesh = Mesh(nodes, elements, h)
        for given, stored in [(nodes, mesh.nodes), (elements, mesh.elements)]:
            assert np.array_equal(given, stored) and not stored.flags.writeable
            assert given.flags.writeable  # the mesh froze a copy, not the caller's array
        assert mesh.dim == nodes.shape[1]
        assert np.array_equal(mesh.boundary_mask, boundary)
        assert not mesh.boundary_mask.flags.writeable
        interior = np.flatnonzero(~boundary)
        assert mesh.n_interior == interior.size
        assert np.array_equal(mesh.interior_index[interior], np.arange(interior.size))
        assert np.all(mesh.interior_index[boundary] == -1)
        assert np.array_equal(mesh.interior_nodes, nodes[interior])
        assert not mesh.interior_index.flags.writeable
        assert not mesh.interior_nodes.flags.writeable

    def test_mass_and_unit_load_integrate_each_basis_function(self, arguments):
        mesh, system = self._build(arguments)
        k = mesh.dim + 1
        # integral of phi_i: the volumes of the elements around node i over (dim + 1)
        support = np.bincount(
            mesh.elements.ravel(), np.repeat(element_volumes(mesh), k), mesh.n_nodes
        )[~mesh.boundary_mask] / k
        assert load_vector(system, lambda p: 1.0) == pytest.approx(support, rel=1e-14)
        assert system.ones_load == pytest.approx(support, rel=1e-14)
        # the mass row of i sums M_ij over interior j only: all of phi_i's
        # partners where its support avoids the boundary
        inside = self._inside_rows(mesh)
        assert system.mass.row_sums()[inside] == pytest.approx(support[inside], rel=1e-14)

    def test_stiffness_annihilates_linear_field_inside(self, arguments):
        mesh, system = self._build(arguments)
        values, _ = self._linear(mesh)
        inside = self._inside_rows(mesh)
        residual = scipy_csr(system.stiffness) @ values[~mesh.boundary_mask]
        assert np.abs(residual[inside]).max() <= 1e-12

    def test_gradients_of_linear_field_inside(self, arguments):
        mesh, system = self._build(arguments)
        values, slope = self._linear(mesh)
        inside = ~mesh.boundary_mask[mesh.elements].any(axis=1)
        assert np.count_nonzero(inside) >= 2
        for d, product in enumerate(system.grad_products):
            grad = product(values[~mesh.boundary_mask], np.zeros(mesh.elements.shape[0]))
            assert grad[inside] == pytest.approx(np.full(np.count_nonzero(inside), slope[d]),
                                                 rel=1e-12)


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
        residual = scipy_csr(sys_quarter.mass) @ p - load_vector(sys_quarter, g)
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
        x = sys_half.euler_solver(0.5).solve(np.array([1 / 3]))
        assert x == pytest.approx([1 / 7], abs=1e-12)

    def test_zero_rhs(self, sys_quarter):
        assert np.abs(sys_quarter.euler_solver(0.3).solve(np.zeros(3))).max() == 0.0

    def test_factorization_cache_refreshes(self, sys_quarter):
        rhs = np.array([1.0, -2.0, 0.5])
        x1 = sys_quarter.euler_solver(0.1).solve(rhs)
        x2 = sys_quarter.euler_solver(0.2).solve(rhs)
        fresh = assemble(make_interval_mesh(0, 1, 4))
        assert x1 == pytest.approx(fresh.euler_solver(0.1).solve(rhs), abs=0)
        assert x2 == pytest.approx(fresh.euler_solver(0.2).solve(rhs), abs=0)

    def test_linearity(self, sys_quarter):
        rng = np.random.default_rng(3)
        r1, r2 = rng.normal(size=(2, 3))
        a, b = 1.7, -0.4
        solver = sys_quarter.euler_solver(0.05)
        lhs = solver.solve(a * r1 + b * r2)
        rhs = a * solver.solve(r1) + b * solver.solve(r2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_matrix_rhs(self, sys_quarter):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(3, 5))
        batched = sys_quarter.euler_solver(0.2).solve(block)
        for j in range(5):
            assert batched[:, j] == pytest.approx(
                sys_quarter.euler_solver(0.2).solve(block[:, j]), abs=0
            )

    def test_solve_unchecked_solves_in_place(self):
        # the single-column sweeps rely on this: a scipy whose f2py wrapper
        # starts copying the rhs would fail here, not silently slow down
        system = assemble(make_interval_mesh(0, 1, 10))
        solver = system.euler_solver(0.1)
        table = np.random.default_rng(5).normal(size=(3, system.n))
        for rhs in (table[1], table[2][:, None]):  # a row, and a row as an (n, 1) block
            expected = solver.solve(rhs)
            x = solver.solve_unchecked(rhs)
            assert x is rhs and np.shares_memory(x, table)
            assert np.array_equal(x, expected)

    def test_invalid_tau(self, sys_half):
        with pytest.raises(ValueError):
            sys_half.euler_solver(0.0).solve(np.array([1.0]))

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_invalid_gamma(self, sys_half, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be positive, got {gamma}$"):
            EulerSolver(sys_half, 0.5, gamma)

    def test_wrong_rhs_length(self, sys_quarter):
        with pytest.raises(ValueError, match="^rhs length 2 != system size 3$"):
            sys_quarter.euler_solver(0.5).solve(np.ones(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rhs_fails_residual_guard(self, sys_half, value):
        with pytest.raises(NumericalError):
            sys_half.euler_solver(0.5).solve(np.array([value]))
        with pytest.raises(NumericalError, match="mass solve residual"):
            sys_half.mass_solve(np.full(sys_half.n, value))

    def test_singular_operator_fails_factorization(self):
        zero = Csr.from_triplets((2, 2), [], [], [])
        with pytest.raises(NumericalError):
            EulerSolver(SimpleNamespace(mass=zero, stiffness=zero), 0.5)

    def test_indefinite_operator_fails_factorization(self):
        indefinite = Csr.from_triplets((2, 2), [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0])
        zero = Csr.from_triplets((2, 2), [], [], [])
        with pytest.raises(NumericalError, match="implicit-Euler factorization failed"):
            EulerSolver(SimpleNamespace(mass=indefinite, stiffness=zero), 0.5)


def _bandwidth(chol) -> int:
    return chol._factor.shape[0] - 1  # the factor keeps the band's kd + 1 rows


class TestBandedCholesky:
    def test_bandwidth_interval(self):
        system = assemble(make_interval_mesh(0, 1, 9))
        assert _bandwidth(_CheckedCholesky(system.mass, "mass")) == 1
        assert _bandwidth(system.euler_solver(0.1)) == 1

    @pytest.mark.parametrize("cells", [3, 6, 8])
    def test_bandwidth_rectangle(self, cells):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), cells, cells))
        assert _bandwidth(_CheckedCholesky(system.mass, "mass")) == cells
        assert _bandwidth(system.euler_solver(0.1)) == cells

    def test_2d_solve_matches_dense(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8))
        rhs = np.random.default_rng(5).normal(size=system.n)
        dense = scipy_csr(system.mass.plus_scaled(system.stiffness, 0.05)).toarray()
        oracle = np.linalg.solve(dense, rhs)
        x = system.euler_solver(0.05).solve(rhs)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_2d_matrix_rhs_equals_columns(self):
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8))
        block = np.random.default_rng(6).normal(size=(system.n, 4))
        batched = system.euler_solver(0.05).solve(block)
        for j in range(4):
            assert np.array_equal(batched[:, j], system.euler_solver(0.05).solve(block[:, j]))

    def test_residual_is_checked_per_column(self):
        # doubling the last pivot corrupts solutions near the last node only;
        # the inverse decays fast, so a large column on the first node barely
        # feels it while a small column on the last node is wrong by O(1)
        system = assemble(make_interval_mesh(0, 1, 40))
        chol = _CheckedCholesky(system.mass, "mass")
        chol._factor[0, -1] *= 2.0
        rhs = np.zeros((system.n, 512))
        rhs[0, 0] = 1.0
        rhs[-1, 1] = 1e-12
        # the Frobenius check of the whole block lets it through
        x, _ = _PBTRS(chol._factor, rhs, lower=1)
        assert np.linalg.norm(scipy_csr(system.mass) @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
        with pytest.raises(NumericalError, match="in column 1"):
            chol.solve(rhs)
        assert np.isfinite(chol.solve(rhs[:, :1])).all()

    def test_solve_leaves_the_rhs_alone(self):
        # the check overwrites the right-hand side it is given with the
        # residual, so solve must hand it a copy
        system = assemble(make_rectangle_mesh((0, 0), (1, 1), 8, 8))
        rng = np.random.default_rng(7)
        for rhs in (rng.normal(size=system.n), rng.normal(size=(system.n, 3))):
            kept = rhs.copy()
            system.euler_solver(0.05).solve(rhs)
            assert np.array_equal(rhs, kept)


def _operators():
    for mesh in (make_interval_mesh(0, 1, 20), make_rectangle_mesh((0, 0), (1, 1), 7, 6)):
        system = assemble(mesh)
        yield system.mass
        yield system.mass.plus_scaled(system.stiffness, 0.03)


def _operands(n: int):
    rng = np.random.default_rng(11)
    block = rng.normal(size=(n, 6))
    yield block[:, 0].copy()  # (n,)
    yield block[:, :1].copy()  # (n, 1)
    yield block  # C-ordered (n, k)
    yield np.asfortranarray(block)  # F-ordered (n, k)
    yield block[:, 2]  # strided (n,)
    yield block[:, 1:2]  # strided (n, 1)
    yield block[:, ::2]  # strided (n, k)
    yield rng.normal(size=(2 * n, 3))[::2]  # row-strided (n, k)


class TestCsrProduct:
    @pytest.mark.parametrize("op", list(_operators()))
    def test_matches_scipy_bit_for_bit(self, op):
        product = csr_product(op)
        for x in _operands(op.shape[0]):
            want = scipy_csr(op) @ x
            zeros = np.zeros(want.shape)
            assert product(x, zeros) is zeros
            assert np.array_equal(zeros, want)

    @pytest.mark.parametrize("op", list(_operators()))
    def test_out_accumulates_in_place(self, op):
        product = csr_product(op)
        for x in _operands(op.shape[0]):
            want = scipy_csr(op) @ x
            start = np.full(want.shape, 0.5)
            assert np.allclose(product(x, start), 0.5 + want, rtol=1e-14, atol=1e-14)

    def test_rejects_mismatched_out(self, sys_quarter):
        x = np.ones((sys_quarter.n, 3))
        with pytest.raises(ValueError):
            sys_quarter.mass_product(x, np.zeros((sys_quarter.n, 2)))
        with pytest.raises(ValueError):
            sys_quarter.mass_product(x, np.zeros((sys_quarter.n, 3), order="F"))

    def test_rejects_mismatched_operands(self, sys_quarter):
        with pytest.raises(ValueError):
            sys_quarter.mass_product(np.zeros(4), np.zeros(sys_quarter.n))
        with pytest.raises(ValueError):
            sys_quarter.mass_product(np.zeros((3, 2, 2)), np.zeros((sys_quarter.n, 2, 2)))


SCIPY_MESHES = {
    "interval40": lambda: make_interval_mesh(0, 1, 40),
    "interval25": lambda: make_interval_mesh(0, 1, 25),
    "rectangle60x60": lambda: make_rectangle_mesh((0, 0), (1, 1), 60, 60),
    "rectangle7x5": lambda: make_rectangle_mesh((0, 0), (1, 2), 7, 5),
}


def _same_csr(got: Csr, want: sp.csr_matrix) -> bool:
    return (
        got.shape == want.shape
        and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(
                (got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data)
            )
        )
    )


def _scipy_band_factor(op: sp.csr_matrix) -> np.ndarray:
    """The lower band factor through scipy's ``tril``, as socfem once formed it."""
    lower = sp.tril(op, format="coo")
    band = np.zeros((int(np.max(lower.row - lower.col, initial=0)) + 1, op.shape[0]))
    band[lower.row - lower.col, lower.col] = lower.data
    factor, info = _PBTRF(band, lower=1)
    assert info == 0
    return factor


@pytest.mark.parametrize("name", list(SCIPY_MESHES))
def test_operators_bit_identical_to_scipy(name, monkeypatch):
    # every operator assembly builds, from the same triplets, scipy's
    # coo_matrix(...).tocsr() next to socfem's own record
    twins = {}
    build = Csr.from_triplets.__func__

    def recorded(cls, shape, rows, cols, vals):
        op = build(cls, shape, rows, cols, vals)
        twins[id(op)] = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        return op

    monkeypatch.setattr(Csr, "from_triplets", classmethod(recorded))
    system = assemble(SCIPY_MESHES[name]())
    ops = (system.mass, system.stiffness, system.load_matrix) + system.grad_ops
    assert len(twins) == len(ops)
    for op in ops:
        assert _same_csr(op, twins[id(op)])
    mass, stiffness, load = (twins[id(op)] for op in ops[:3])

    assert np.array_equal(system.ones_load, np.asarray(load.sum(axis=1)).ravel())
    tau, gamma = 0.01, 0.7
    assert _same_csr(system.mass.plus_scaled(system.stiffness, tau * gamma),
                     mass + tau * gamma * stiffness)
    euler = system.euler_solver(tau, gamma)._factor
    assert np.array_equal(euler, _scipy_band_factor(mass + tau * gamma * stiffness))
    assert np.array_equal(
        _CheckedCholesky(system.mass, "mass")._factor, _scipy_band_factor(mass)
    )

    g = lambda p: np.exp(p[..., 0]) * np.cos(3.0 * p[..., -1])
    assert np.array_equal(load_vector(system, g), load @ g(system.quad_points))
    assert np.array_equal(load_vector(system, lambda p: 2.5), load @ np.full(load.shape[1], 2.5))
    values = np.random.default_rng(9).normal(size=(5, load.shape[1]))
    assert np.array_equal(load_from_values(system, values), values @ load.T)
    assert np.array_equal(load_from_values(system, values[0]), values[0] @ load.T)


def test_missing_scipy_module_names_the_verified_release():
    with pytest.raises(ImportError) as failure:
        _scipy_extension("sparse._no_such_module")
    assert f"scipy {scipy.__version__} installed" in str(failure.value)
    assert "verified against scipy 1.17.1" in str(failure.value)


def test_missing_scipy_module_fails_loudly():
    with pytest.raises(ImportError) as failure:
        _scipy_extension("sparse._no_such_module")
    message = str(failure.value)
    folder = str(Path(scipy.__file__).parent / "sparse")
    assert "scipy.sparse._no_such_module" in message
    assert folder in message
    assert f"scipy {scipy.__version__}" in message
