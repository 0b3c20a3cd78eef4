"""P1 finite elements on interior nodes: mass/stiffness assembly, L2
projection, load vectors and implicit-Euler solves.

Homogeneous Dirichlet conditions are enforced by eliminating boundary rows
and columns, so every operator and nodal vector lives on the dense interior
numbering of the mesh.  Mass and stiffness entries come from exact element
integration of P1 products; load vectors use a fixed degree-2-exact
quadrature (3-point Gauss per segment in 1D, edge midpoints per triangle in
2D), which keeps quadrature error below the h^2 discretization error.

A ``FemSystem`` is immutable after assembly.  Banded Cholesky factors of
(M + tau*gamma*A) are cached per (tau, gamma); the mass factor on first use.

Every solve is residual-checked per column, with one rule: column j passes
when its right-hand side is finite and |op x_j - rhs_j| <= 1e-10 |rhs_j|.
``solve`` checks before it returns, which is how mass solves and the
per-level path blocks of ``spde.iter_forward_paths`` are checked.  The
single-column sweeps of ``spde`` solve through ``solve_unchecked`` and pass
all their levels to the same ``check`` once, before the sweep returns; in
1D that one pass costs less than a per-step check's dispatch.

The systems are small (n = 14..39 in 1D), so a time step costs Python
overhead rather than arithmetic.  Products with M and the residual
products of the solves therefore go through ``csr_product``, which calls
the sparsetools kernel that ``A @ x`` itself ends in and skips scipy's
generic dispatch; the sums, and so every output, are unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
# Private scipy module (checked against scipy 1.17): a release that moves or
# changes it breaks ``import socfem``, so check it on every scipy upgrade.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .errors import NumericalError
from .grid import Mesh, element_volumes

_RESIDUAL_RTOL = 1e-10
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)

# 3-point Gauss-Legendre on [-1, 1]
_GAUSS3_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def csr_product(op: sp.csr_matrix) -> Callable[..., np.ndarray]:
    """``op @ x`` for float64 x of shape (n,), (n, 1) or (n, k), bit for bit.

    Calls the kernel scipy's own ``op @ x`` routes to (``csr_matvec`` for
    (n,) and (n, 1), ``csr_matvecs`` on the C-order copy of an (n, k)
    block) with the CSR arrays bound once, so the sums are the same and
    only the per-call dispatch is gone.  Given a C-ordered ``out`` of the
    result's shape, the kernel adds ``op @ x`` to it in place and returns it.
    """
    op = op.tocsr()
    m, n = op.shape
    indptr, indices, data = op.indptr, op.indices, op.data

    def product(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if x.shape[0] != n or x.ndim > 2:
            raise ValueError(f"operand shape {x.shape} does not match operator shape {(m, n)}")
        if out is None:
            out = np.zeros((m,) + x.shape[1:])
        elif out.shape != (m,) + x.shape[1:] or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-ordered array of shape {(m,) + x.shape[1:]}")
        if x.ndim == 1 or x.shape[1] == 1:
            csr_matvec(m, n, indptr, indices, data, x.ravel(), out.ravel())
        else:
            csr_matvecs(m, n, x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
        return out

    return product


def _column_norms(v: np.ndarray) -> np.ndarray:
    """2-norms of the columns of an (n, k) block."""
    return np.sqrt(np.einsum("ij,ij->j", v, v))


class _CheckedCholesky:
    """Banded Cholesky (lower band) of an SPD operator with a per-column residual check.

    The bandwidth is the largest ``row - col`` of a stored entry: 1 in 1D
    and ``cells`` in 2D under the mesh's interior numbering.  A failed
    factorization (the operator is not SPD) raises ``NumericalError`` naming
    ``what``.  ``solve`` checks each solution before it returns it;
    ``solve_unchecked`` leaves the check to its caller, which passes the
    right-hand sides and solutions of many solves to one ``check`` (see
    ``spde._single_column``).
    """

    def __init__(self, op: sp.spmatrix, what: str):
        self._what = what
        op = op.tocsr()
        self._n = op.shape[0]
        self._product = csr_product(op)
        lower = sp.tril(op, format="coo")
        kd = int(np.max(lower.row - lower.col, initial=0))
        band = np.zeros((kd + 1, self._n))
        band[lower.row - lower.col, lower.col] = lower.data
        self._factor, info = _PBTRF(band, lower=1)
        if info != 0:
            raise NumericalError(f"{what} factorization failed: pbtrf info={info}, not SPD")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (n,) or a batch (n, k), residual-checked."""
        rhs = np.array(rhs, dtype=float, order="C")  # a copy: the check consumes it
        if rhs.shape[0] != self._n:
            raise ValueError(f"rhs length {rhs.shape[0]} != system size {self._n}")
        x = self.solve_unchecked(rhs)
        self.check(rhs, x)
        return x

    def solve_unchecked(self, rhs: np.ndarray) -> np.ndarray:
        """``solve`` without the check: the caller must ``check`` x before using it."""
        x, _ = _PBTRS(self._factor, rhs, lower=1)
        return x

    def check(self, rhs: np.ndarray, x: np.ndarray, levels: range | None = None) -> None:
        """Raise ``NumericalError`` unless each column of x solves its column of rhs.

        Takes (n,) or (n, k) pairs, rhs C-ordered.  Column j passes when
        rhs_j is finite and |op x_j - rhs_j| <= 1e-10 |rhs_j|, so one bad
        column is not diluted by the others.  One residual product covers
        all columns and overwrites ``rhs`` with the residual, so a C-ordered
        x costs no (n, k) temporary.  The first failing column is named as
        ``column j``, or as ``level levels[j]`` when the columns are the
        levels of a sweep.
        """
        rhs, x = rhs.reshape(self._n, -1), x.reshape(self._n, -1)
        scale = _column_norms(rhs)
        finite = np.isfinite(scale)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NumericalError(
                f"{self._what} solve residual undefined: |rhs| = {scale[j]} "
                f"{_column_name(j, levels)}"
            )
        residual = self._product(x, np.negative(rhs, out=rhs))
        res = _column_norms(residual)
        ok = res <= _RESIDUAL_RTOL * scale
        if not ok.all():
            j = int(np.argmin(ok))
            raise NumericalError(
                f"{self._what} solve residual {res[j]:.3e} exceeds "
                f"{_RESIDUAL_RTOL:.1e} * |rhs| = {_RESIDUAL_RTOL * scale[j]:.3e} "
                f"{_column_name(j, levels)}"
            )


def _column_name(j: int, levels: range | None) -> str:
    return f"in column {j}" if levels is None else f"at level {levels[j]}"


class EulerSolver(_CheckedCholesky):
    """Banded Cholesky of (M + tau*gamma*A) on interior nodes; see ``_CheckedCholesky``."""

    def __init__(self, system: "FemSystem", tau: float, gamma: float = 1.0):
        if not tau > 0.0:
            raise ValueError(f"tau must be positive, got {tau}")
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        super().__init__(system.mass + tau * gamma * system.stiffness, "implicit-Euler")


class FemSystem:
    """Assembled P1 operators over the interior nodes of a mesh.

    Attributes
    ----------
    mesh : Mesh
    mass : csr_matrix
        M_ij = integral of phi_i * phi_j (symmetric positive definite).
    stiffness : csr_matrix
        A_ij = integral of grad(phi_i) . grad(phi_j) (symmetric PSD).
    quad_points : ndarray, shape (n_quad, dim)
        Global quadrature points of the load rule, element-major (3 per
        element).
    quad_weights : ndarray, shape (n_quad,)
        Quadrature weight per global point.
    load_matrix : csr_matrix, shape (n_interior, n_quad)
        Maps integrand values at quadrature points to nodal load vectors.
    grad_ops : tuple of csr_matrix, shape (n_elements, n_interior)
        Per-dimension maps from interior nodal values to the (constant)
        P1 gradient on each element.
    mass_product : callable
        ``x -> mass @ x``, bit for bit, through ``csr_product``.
    """

    def __init__(self, mesh, mass, stiffness, quad_points, quad_weights, load_matrix, grad_ops):
        self.mesh = mesh
        self.mass = mass
        self.stiffness = stiffness
        self.quad_points = quad_points
        self.quad_weights = quad_weights
        self.load_matrix = load_matrix
        self.grad_ops = grad_ops
        self.mass_product = csr_product(mass)
        self._euler_cache: dict[tuple[float, float], EulerSolver] = {}
        self._mass_chol = None
        self.ones_load = np.asarray(load_matrix.sum(axis=1)).ravel()

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    def euler_solver(self, tau: float, gamma: float = 1.0) -> EulerSolver:
        """Cached factorization of (M + tau*gamma*A)."""
        key = (float(tau), float(gamma))
        solver = self._euler_cache.get(key)
        if solver is None:
            solver = self._euler_cache[key] = EulerSolver(self, tau, gamma)
        return solver

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs (used by the L2 projection), residual-checked."""
        if self._mass_chol is None:
            self._mass_chol = _CheckedCholesky(self.mass, "mass")
        return self._mass_chol.solve(rhs)


def assemble(mesh: Mesh) -> FemSystem:
    """Assemble mass/stiffness operators and the load-quadrature map."""
    n_int = mesh.n_interior
    if n_int < 1:
        raise ValueError("mesh has no interior nodes; refine before assembling")

    if mesh.dim == 1:
        mass, stiff = _assemble_1d(mesh)
        qpts, qwts, lmat = _load_rule_1d(mesh)
    else:
        mass, stiff = _assemble_2d(mesh)
        qpts, qwts, lmat = _load_rule_2d(mesh)
    grad_ops = _gradient_ops(mesh)
    return FemSystem(mesh, mass.tocsr(), stiff.tocsr(), qpts, qwts, lmat.tocsr(), grad_ops)


def _gradient_ops(mesh: Mesh) -> tuple:
    """Interior nodal values -> constant P1 gradient per element."""
    elems = mesh.elements
    ne = elems.shape[0]
    if mesh.dim == 1:
        h = element_volumes(mesh)
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]  # (ne, 2, 1)
    else:
        pts = mesh.nodes[elems]
        area = element_volumes(mesh)
        e = np.stack(
            [pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]], axis=1
        )
        # grad(lambda_i) = rot90(e_i) / (2*area)
        grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / (2.0 * area)[:, None, None]

    rows = np.broadcast_to(np.arange(ne)[:, None], elems.shape).ravel()
    cidx = mesh.interior_index[elems.ravel()]
    keep = cidx >= 0
    ops = []
    for d in range(mesh.dim):
        vals = grads[..., d].ravel()
        ops.append(
            sp.coo_matrix(
                (vals[keep], (rows[keep], cidx[keep])), shape=(ne, mesh.n_interior)
            ).tocsr()
        )
    return tuple(ops)


def _scatter(mesh: Mesh, rows, cols, vals) -> sp.coo_matrix:
    """Drop boundary couplings and map to the dense interior numbering."""
    ridx = mesh.interior_index[rows]
    cidx = mesh.interior_index[cols]
    keep = (ridx >= 0) & (cidx >= 0)
    n = mesh.n_interior
    return sp.coo_matrix((vals[keep], (ridx[keep], cidx[keep])), shape=(n, n))


def _assemble_1d(mesh: Mesh):
    elems = mesh.elements
    h = element_volumes(mesh)
    loc_mass = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    loc_stiff = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mvals = (h[:, None, None] * loc_mass).ravel()
    avals = (loc_stiff / h[:, None, None]).ravel()
    rows = np.repeat(elems, 2, axis=1).ravel()
    cols = np.tile(elems, (1, 2)).ravel()
    return _scatter(mesh, rows, cols, mvals), _scatter(mesh, rows, cols, avals)


def _assemble_2d(mesh: Mesh):
    elems = mesh.elements
    pts = mesh.nodes[elems]  # (ne, 3, 2)
    area = element_volumes(mesh)
    # edge vector opposite local vertex i
    e = np.stack(
        [pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]], axis=1
    )
    loc_stiff = np.einsum("eid,ejd->eij", e, e) / (4.0 * area)[:, None, None]
    loc_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mvals = (area[:, None, None] * loc_mass).ravel()
    avals = loc_stiff.ravel()
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    return _scatter(mesh, rows, cols, mvals), _scatter(mesh, rows, cols, avals)


def _load_rule_1d(mesh: Mesh):
    elems = mesh.elements
    a = mesh.nodes[elems[:, 0], 0]
    h = element_volumes(mesh)
    # quad point q of element e sits at global column e*3 + q
    x = a[:, None] + 0.5 * h[:, None] * (1.0 + _GAUSS3_X[None, :])
    w = 0.5 * h[:, None] * _GAUSS3_W[None, :]
    lam = 0.5 * (1.0 + _GAUSS3_X)  # local coordinate of each quad point
    basis = np.stack([1.0 - lam, lam], axis=0)  # (2 local nodes, 3 points)

    ne = elems.shape[0]
    qcols = (np.arange(ne)[:, None, None] * 3 + np.arange(3)[None, None, :])
    rows = np.broadcast_to(elems[:, :, None], (ne, 2, 3)).ravel()
    cols = np.broadcast_to(qcols, (ne, 2, 3)).ravel()
    vals = (w[:, None, :] * basis[None, :, :]).ravel()
    return _finish_load(mesh, x.reshape(-1, 1), w.ravel(), rows, cols, vals, ne * 3)


def _load_rule_2d(mesh: Mesh):
    elems = mesh.elements
    pts = mesh.nodes[elems]
    area = element_volumes(mesh)
    mids = 0.5 * np.stack(
        [pts[:, 0] + pts[:, 1], pts[:, 1] + pts[:, 2], pts[:, 2] + pts[:, 0]], axis=1
    )  # (ne, 3, 2)
    # P1 values at edge midpoints: vertex i is 1/2 on its two adjacent edges
    basis = 0.5 * np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])

    ne = elems.shape[0]
    w = (area / 3.0)[:, None] * np.ones((1, 3))
    qcols = (np.arange(ne)[:, None, None] * 3 + np.arange(3)[None, None, :])
    rows = np.broadcast_to(elems[:, :, None], (ne, 3, 3)).ravel()
    cols = np.broadcast_to(qcols, (ne, 3, 3)).ravel()
    vals = (w[:, None, :] * basis[None, :, :]).ravel()
    return _finish_load(mesh, mids.reshape(-1, 2), w.ravel(), rows, cols, vals, ne * 3)


def _finish_load(mesh, qpts, qwts, rows, cols, vals, n_quad):
    ridx = mesh.interior_index[rows]
    keep = ridx >= 0
    lmat = sp.coo_matrix(
        (vals[keep], (ridx[keep], cols[keep])), shape=(mesh.n_interior, n_quad)
    )
    qpts = np.ascontiguousarray(qpts)
    qpts.flags.writeable = False
    qwts = np.ascontiguousarray(qwts)
    qwts.flags.writeable = False
    return qpts, qwts, lmat


def load_vector(system: FemSystem, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """b_i = integral of g * phi_i via the system's quadrature rule."""
    vals = np.asarray(g(system.quad_points), dtype=float)
    vals = np.broadcast_to(vals, (system.quad_points.shape[0],))
    return system.load_matrix @ vals


def load_from_values(system: FemSystem, values: np.ndarray) -> np.ndarray:
    """Load vectors from integrand values at ``system.quad_points``.

    ``values`` may carry leading batch axes, e.g. (paths, n_quad); the
    result has the matching shape (..., n_interior).
    """
    return np.asarray(values) @ system.load_matrix.T


def l2_project(system: FemSystem, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Discrete L2 projection of g onto the interior P1 space.

    Solves M p = load(g); the Galerkin property (M p - load(g))_j = 0 holds
    for every basis index j up to solver accuracy.
    """
    return system.mass_solve(load_vector(system, g))
