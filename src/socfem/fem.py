"""P1 finite elements on interior nodes: mass/stiffness assembly, L2
projection, load vectors and implicit-Euler solves.

Homogeneous Dirichlet conditions are enforced by eliminating boundary rows
and columns, so every operator and nodal vector lives on the dense interior
numbering of the mesh.  Mass and stiffness entries come from exact element
integration of P1 products; load vectors use a fixed degree-2-exact
quadrature (3-point Gauss per segment in 1D, edge midpoints per triangle in
2D), which keeps quadrature error below the h^2 discretization error.
``assemble`` is one path for both dimensions: only the element formulas
(``_elements_1d``, ``_elements_2d``: volumes, local stiffness, basis
gradients and the load rule) depend on it, and the local mass, the
scatter onto the interior numbering, the gradient maps and the load
matrix are written once.

A ``FemSystem``'s operators are immutable; the banded Cholesky factor of
(M + tau*gamma*A) per (tau, gamma) and one ``SweepTables`` per step count
are cached on first use.  The mass factor is not: ``mass_solve`` factors
M on every call, since only set-up solves with it (the L2 projections).
A ``SweepTables`` holds one (N, n) table, ``rows``, and a transposed
scratch pair of at most ``_SCRATCH_BYTES`` (1 MiB), through which the
whole-trajectory mass products and the residual check walk the levels
in chunks; every 1D sweep is one chunk.

Every solve is residual-checked per column, with one rule: column j passes
when its right-hand side is finite and |op x_j - rhs_j| <= 1e-10 |rhs_j|.
``solve`` checks before it returns, which is how mass solves are checked.
The sweeps of ``spde`` solve through ``solve_unchecked``, in place on
their own buffers, and call the same ``check`` themselves.  The path
block (``iter_forward_paths``) checks each level before it yields it.
The single-column kernel (``_row_sweep``) passes all its levels to one
``SweepTables.check``, before the sweep returns, which checks them one
chunk at a time; in 1D that one pass costs less than a per-step check's
dispatch.

The systems are small (n = 14..39 in 1D), so a time step costs Python
overhead rather than arithmetic.  Sparse products therefore call the
sparsetools kernel that scipy's own ``A @ x`` ends in, with the CSR arrays
bound once, and skip scipy's generic dispatch; the sums, and so every
output, are unchanged.  ``csr_product`` checks the operand and ``out`` on
every call and runs one kernel, ``csr_matvecs``, for every operand width
(a vector is a block of one column), for the whole-trajectory products,
the path blocks and the error pass.  The residual check, whose shapes are
known, calls ``csr_matvecs`` itself, on the entries of -op.  ``csr_kernel``
is the bare (n,) row kernel, with no check at all: the single-column
kernel of ``spde`` checks the shape and layout of its output table once
when a sweep starts, and then each step is one ``FemSystem.mass_kernel``
call and one ``solve_unchecked``; the load tables of ``spde`` stage each
level's quadrature values in one buffer of the right length and load
them with ``FemSystem.load_kernel``.

Operators are ``Csr`` records (shape, indptr, indices, data), not scipy
matrices.  ``Csr.from_triplets`` runs the sparsetools kernels of scipy's
``coo_matrix(...).tocsr()`` in the same order, so every stored entry, and
with it every band factor and output, equals scipy's bit for bit.  scipy's
two compiled modules, ``linalg._flapack`` (the banded Cholesky
``dpbtrf``/``dpbtrs``) and ``sparse._sparsetools`` (the CSR kernels), are
loaded straight from their files in the installed scipy: the package
``__init__`` of ``scipy.sparse`` and ``scipy.linalg`` would cost more than
half of ``import socfem``.  A scipy without either file fails ``import
socfem`` with an ``ImportError`` that names the module, the folder, the
installed scipy version and the one these files were verified against
(1.17.1), so check both on every scipy upgrade.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .errors import NumericalError
from .grid import Mesh, element_volumes


def _scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, loaded from its file.

    Runs the module's own initialiser only, not the ``__init__`` of the
    scipy subpackage that holds it, and adds nothing to ``sys.modules``.
    A missing file raises ``ImportError``.
    """
    package, _, leaf = name.rpartition(".")
    folder = Path(scipy.__file__).parent.joinpath(*package.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (leaf + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(
        f"scipy.{name}: no compiled module {leaf!r} in {folder} (scipy {scipy.__version__} "
        "installed; socfem was verified against scipy 1.17.1)"
    )


_sparsetools = _scipy_extension("sparse._sparsetools")
_flapack = _scipy_extension("linalg._flapack")
_PBTRF, _PBTRS = _flapack.dpbtrf, _flapack.dpbtrs
_RESIDUAL_RTOL = 1e-10
# the transposed scratch pair of ``SweepTables``: about 18 levels of a
# 3,481-node 2D system per chunk, and every 1D sweep in one
_SCRATCH_BYTES = 1 << 20

# 3-point Gauss-Legendre on [-1, 1]
_GAUSS3_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True, eq=False)
class Csr:
    """A sparse operator in canonical CSR form (sorted column indices, no
    duplicates), with int32 indices and float64 data as scipy stores it."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_triplets(cls, shape: tuple[int, int], rows, cols, vals) -> Csr:
        """The sum of the entries ``vals`` at (rows, cols), as scipy's
        ``coo_matrix((vals, (rows, cols)), shape).tocsr()`` forms it.

        The same kernels in the same order: ``coo_tocsr``, the in-row sort
        when a row is out of order, then ``csr_sum_duplicates``.  The sort
        is unstable over rows that still hold duplicates, so only the same
        kernel on the same input adds them in the same order.
        """
        m, n = shape
        nnz = len(vals)
        indptr, indices, data = np.empty(m + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz)
        _sparsetools.coo_tocsr(
            m, n, nnz, np.asarray(rows, np.int32), np.asarray(cols, np.int32),
            np.asarray(vals, np.float64), indptr, indices, data,
        )
        if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
            _sparsetools.csr_sort_indices(m, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(m, n, indptr, indices, data)
        return cls._trimmed(shape, indptr, indices, data)

    @classmethod
    def _trimmed(cls, shape, indptr, indices, data) -> Csr:
        nnz = indptr[-1]
        return cls(shape, indptr, indices[:nnz].copy(), data[:nnz].copy())

    def plus_scaled(self, other: Csr, scale: float) -> Csr:
        """``self + scale * other``, formed as scipy's ``csr_plus_csr`` forms it."""
        m, n = self.shape
        size = len(self.data) + len(other.data)
        indptr, indices, data = np.empty(m + 1, np.int32), np.empty(size, np.int32), np.empty(size)
        _sparsetools.csr_plus_csr(
            m, n, self.indptr, self.indices, self.data,
            other.indptr, other.indices, other.data * scale, indptr, indices, data,
        )
        return self._trimmed(self.shape, indptr, indices, data)

    def row_sums(self) -> np.ndarray:
        """Each row's sum, added as scipy's ``sum(axis=1)`` adds it: one
        ``np.add.reduceat`` over the non-empty rows, pairwise on long rows."""
        out = np.zeros(self.shape[0])
        rows = np.flatnonzero(np.diff(self.indptr))
        out[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return out

    def lower_band(self) -> np.ndarray:
        """The lower triangle in LAPACK's lower band storage: entry (i, j) at
        [i - j, j], with one row per offset up to the widest stored i - j,
        Fortran-ordered as LAPACK reads it."""
        offset = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)) - self.indices
        lower = offset >= 0
        band = np.zeros((int(np.max(offset[lower], initial=0)) + 1, self.shape[0]), order="F")
        band[offset[lower], self.indices[lower]] = self.data[lower]
        return band


def csr_kernel(op: Csr) -> Callable[[np.ndarray, np.ndarray], None]:
    """``out += op @ x`` for C-contiguous float64 rows x (n,) and out (m,), unchecked.

    ``csr_matvec`` with the CSR arrays of ``op`` bound, the kernel that
    scipy's own ``op @ x`` ends in, so a zeroed ``out`` receives the same
    sums bit for bit.  Nothing is checked: a short x is read past its end,
    so the caller checks shapes and layout first (``spde`` does it once per
    sweep).
    """
    return partial(_sparsetools.csr_matvec, *op.shape, op.indptr, op.indices, op.data)


def csr_product(op: Csr) -> Callable[..., np.ndarray]:
    """``op @ x`` for float64 x of shape (n,), (n, 1) or (n, k), bit for bit.

    Calls ``csr_matvecs`` on the C-order copy of x, with k = 1 for a
    vector, and the CSR arrays bound once.  It adds each stored entry's
    product in the order ``csr_matvec`` does, so the sums are those of
    scipy's own ``op @ x`` for every width, and only the per-call dispatch
    is gone.  Every call checks x and ``out`` and raises ``ValueError`` on
    a mismatch.  Given a C-ordered ``out`` of the result's shape, the
    kernel adds ``op @ x`` to it in place and returns it.
    """
    m, n = op.shape
    matvecs = partial(_sparsetools.csr_matvecs, m, n)

    def product(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if x.shape[0] != n or x.ndim > 2:
            raise ValueError(f"operand shape {x.shape} does not match operator shape {(m, n)}")
        if out is None:
            out = np.zeros((m,) + x.shape[1:])
        elif out.shape != (m,) + x.shape[1:] or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-ordered array of shape {(m,) + x.shape[1:]}")
        k = x.shape[1] if x.ndim == 2 else 1
        matvecs(k, op.indptr, op.indices, op.data, x.ravel(), out.ravel())
        return out

    return product


def _column_norms(v: np.ndarray) -> np.ndarray:
    """2-norms of the columns of an (n, k) block."""
    return np.sqrt(np.einsum("ij,ij->j", v, v))


class _CheckedCholesky:
    """Banded Cholesky (lower band) of an SPD operator with a per-column residual check.

    The bandwidth is the largest ``row - col`` of a stored entry: 1 in 1D
    and ``cells`` in 2D under the mesh's interior numbering.  ``pbtrf``
    factors the band in place, so a solver holds one band-sized array and
    builds no second one.  A failed
    factorization (the operator is not SPD) raises ``NumericalError`` naming
    ``what``.  ``solve`` checks each solution before it returns it;
    ``solve_unchecked`` solves in place, overwriting its right-hand side,
    and leaves the check to its caller, which passes the right-hand sides
    and solutions of many solves to one ``check`` (see
    ``spde._row_sweep``).
    """

    def __init__(self, op: Csr, what: str):
        self._what = what
        self._n = op.shape[0]
        # the CSR arrays of -op, for the residual kernel of ``check``
        self._negated = (op.indptr, op.indices, np.negative(op.data))
        self._factor, info = _PBTRF(op.lower_band(), lower=1, overwrite_ab=1)
        if info != 0:
            raise NumericalError(f"{what} factorization failed: pbtrf info={info}, not SPD")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (n,) or a batch (n, k), residual-checked."""
        rhs = np.array(rhs, dtype=float, order="C")  # a copy: the check consumes it
        if rhs.shape[0] != self._n:
            raise ValueError(f"rhs length {rhs.shape[0]} != system size {self._n}")
        x = self.solve_unchecked(np.array(rhs, order="F"))  # a copy, solved in place
        self.check(rhs, x)
        return x

    def solve_unchecked(self, rhs: np.ndarray) -> np.ndarray:
        """``solve`` without the check: the caller must ``check`` x before using it.

        Solves in place: a Fortran-contiguous ``rhs`` (a C-ordered row or
        (n, 1) column among them) is overwritten with x and returned; any
        other layout is solved in a copy.
        """
        # positional (lower=1, ldab, overwrite_b=1): f2py parses keywords slower
        x, _ = _PBTRS(self._factor, rhs, 1, self._factor.shape[0], 1)
        return x

    def check(self, rhs: np.ndarray, x: np.ndarray, levels: range | None = None) -> None:
        """Raise ``NumericalError`` unless each column of x solves its column of rhs.

        Takes (n,) or (n, k) pairs, rhs C-ordered.  Column j passes when
        rhs_j is finite and |op x_j - rhs_j| <= 1e-10 |rhs_j|, so one bad
        column is not diluted by the others.  One ``csr_matvecs`` call on
        the entries of -op covers all columns and overwrites ``rhs`` with
        rhs - op x, so a C-ordered x costs no (n, k) temporary; negation is
        exact, so its norms are those of op x - rhs bit for bit.  The first
        failing column (a bool ``argmin``) is named as ``column j``, or as
        ``level levels[j]`` when the columns are the levels of a sweep.
        """
        n, rhs, x = self._n, rhs.reshape(self._n, -1), x.reshape(self._n, -1)
        scale = _column_norms(rhs)
        finite = np.isfinite(scale)
        j = finite.argmin()
        if not finite[j]:
            raise NumericalError(
                f"{self._what} solve residual undefined: |rhs| = {scale[j]} "
                f"{_column_name(j, levels)}"
            )
        _sparsetools.csr_matvecs(n, n, rhs.shape[1], *self._negated, x.ravel(), rhs.ravel())
        res = _column_norms(rhs)
        ok = res <= _RESIDUAL_RTOL * scale
        j = ok.argmin()
        if not ok[j]:
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
        super().__init__(system.mass.plus_scaled(system.stiffness, tau * gamma), "implicit-Euler")


class SweepTables:
    """Scratch of the single-column sweeps over N steps of an n-node system.

    ``rows`` (N, n) stages one level per row: the scaled loads of a sweep
    on entry, its right-hand sides once the sweep has run.  ``term`` (n,)
    stages one data term of a step.  The whole-trajectory mass products
    (``FemSystem.mass_rows``) and the batched residual check read the
    levels as columns, ``width`` levels at a time: ``chunks`` lists each
    chunk's slice of the levels with its pair of C-ordered (n, k) blocks
    of ``transposed`` (at most ``_SCRATCH_BYTES``), into which a reader
    copies the chunk's rows as columns.  Every 1D sweep (n <= 39,
    N <= 625) is one chunk.  No sweep leaves anything there that a later
    call reads, so
    ``FemSystem.sweep_tables`` keeps one set per step count.
    """

    def __init__(self, steps: int, n: int):
        self.rows = np.empty((steps, n))
        self.term = np.empty(n)
        width = min(steps, max(1, _SCRATCH_BYTES // (2 * 8 * n)))
        self.transposed = np.empty((2, n * width))
        # each chunk's levels and its pair of C-ordered (n, k) blocks
        self.chunks = [
            (chunk, self.transposed[:, : n * (chunk.stop - chunk.start)].reshape(2, n, -1))
            for chunk in (slice(start, min(start + width, steps)) for start in range(0, steps, width))
        ]

    def check(
        self, solver: EulerSolver, rhs_rows: np.ndarray, solution_rows: np.ndarray, levels: range
    ) -> None:
        """Residual-check N solves whose right-hand sides and solutions are rows,
        one batched pass per chunk, naming the first failing level of ``levels``.

        Chunks are checked in sweep order, so the first chunk with a fault
        decides: within it a non-finite right-hand side is reported before
        a residual breach, as in one pass over all levels.
        """
        for chunk, (rhs, solution) in self.chunks:
            np.copyto(rhs, rhs_rows[chunk].T)
            np.copyto(solution, solution_rows[chunk].T)
            solver.check(rhs, solution, levels[chunk])


class FemSystem:
    """Assembled P1 operators over the interior nodes of a mesh.

    Attributes
    ----------
    mesh : Mesh
    mass : Csr
        M_ij = integral of phi_i * phi_j (symmetric positive definite).
    stiffness : Csr
        A_ij = integral of grad(phi_i) . grad(phi_j) (symmetric PSD).
    quad_points : ndarray, shape (n_quad, dim)
        Global quadrature points of the load rule, element-major (3 per
        element).
    quad_weights : ndarray, shape (n_quad,)
        Quadrature weight per global point.
    load_matrix : Csr, shape (n_interior, n_quad)
        Maps integrand values at quadrature points to nodal load vectors.
    grad_ops : tuple of Csr, shape (n_elements, n_interior)
        Per-dimension maps from interior nodal values to the (constant)
        P1 gradient on each element.
    mass_product : callable
        ``x -> mass @ x``, bit for bit, through ``csr_product``.
    mass_kernel : callable
        ``(x, out) -> None``, adding ``mass @ x`` to ``out`` for (n,) rows,
        unchecked (``csr_kernel``).
    load_kernel : callable
        ``(values, out) -> None``, adding ``load_matrix @ values`` to
        ``out`` for (n_quad,) values, unchecked (``csr_kernel``).
    grad_products : tuple of callable
        ``grad_ops[d] @ x``, through ``csr_product``.
    ones_load : ndarray, shape (n_interior,)
        The load vector of g = 1: the row sums of ``load_matrix``.
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
        self.mass_kernel = csr_kernel(mass)
        self.load_kernel = csr_kernel(load_matrix)
        self.grad_products = tuple(csr_product(op) for op in grad_ops)
        self._euler_cache: dict[tuple[float, float], EulerSolver] = {}
        self._tables_cache: dict[int, SweepTables] = {}
        self.ones_load = load_matrix.row_sums()

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

    def sweep_tables(self, steps: int) -> SweepTables:
        """The one ``SweepTables`` of the sweeps over ``steps`` steps, built on first use."""
        if steps not in self._tables_cache:
            self._tables_cache[steps] = SweepTables(steps, self.n)
        return self._tables_cache[steps]

    def mass_rows(self, levels: np.ndarray, out: np.ndarray) -> np.ndarray:
        """M applied to every row of an (N, n) level table, written into ``out`` (N, n).

        Row l of ``out`` becomes ``mass @ levels[l]``, bit for bit, one
        sparse-dense product per chunk of ``sweep_tables(N)``; ``out`` may
        have any layout and is returned.
        """
        for chunk, (cols, product) in self.sweep_tables(len(levels)).chunks:
            np.copyto(cols, levels[chunk].T)
            product.fill(0.0)
            np.copyto(out[chunk], self.mass_product(cols, product).T)
        return out

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs (used by the L2 projection), residual-checked.

        M is factored on every call and the factor is not kept: a run
        solves with M only while it is set up.
        """
        return _CheckedCholesky(self.mass, "mass").solve(rhs)


def assemble(mesh: Mesh) -> FemSystem:
    """Assemble mass/stiffness operators, gradient maps and the load-quadrature map.

    ``_elements_1d`` or ``_elements_2d`` gives each element's data; all
    else is shared.  Entries of element e with k vertices scatter onto the
    interior numbering: the local mass (1 + delta_ij) / (k (k + 1)) times
    the volume, the local stiffness, one gradient row per dimension, and
    the load entries, where quadrature point q of element e is column
    e * nq + q and basis i weighs it by ``basis[i, q]``.
    """
    n = mesh.n_interior
    if n < 1:
        raise ValueError("mesh has no interior nodes; refine before assembling")
    elements = _elements_1d if mesh.dim == 1 else _elements_2d
    volume, loc_stiff, grads, (points, weights, basis) = elements(mesh)
    ne, k = mesh.elements.shape
    nq = weights.shape[1]
    local = mesh.interior_index[mesh.elements]  # (ne, k), -1 on the boundary

    rows, cols = np.repeat(local, k, axis=1).ravel(), np.tile(local, (1, k)).ravel()
    loc_mass = (np.ones((k, k)) + np.eye(k)) / (k * (k + 1))
    mass = _scatter((n, n), rows, cols, (volume[:, None, None] * loc_mass).ravel())
    stiffness = _scatter((n, n), rows, cols, loc_stiff.ravel())

    owner = np.repeat(np.arange(ne), k)
    grad_ops = tuple(
        _scatter((ne, n), owner, local.ravel(), grads[..., d].ravel()) for d in range(mesh.dim)
    )

    load_rows = np.broadcast_to(local[:, :, None], (ne, k, nq)).ravel()
    load_cols = np.broadcast_to(np.arange(ne * nq).reshape(ne, 1, nq), (ne, k, nq)).ravel()
    load_vals = (weights[:, None, :] * basis[None, :, :]).ravel()
    load = _scatter((n, ne * nq), load_rows, load_cols, load_vals)

    qpts = np.ascontiguousarray(points.reshape(ne * nq, mesh.dim))
    qwts = np.ascontiguousarray(weights.ravel())
    qpts.flags.writeable = qwts.flags.writeable = False
    return FemSystem(mesh, mass, stiffness, qpts, qwts, load, grad_ops)


def _scatter(shape: tuple[int, int], rows, cols, vals) -> Csr:
    """The summed triplets, without the entries whose row or column is -1
    (a boundary node under ``Mesh.interior_index``)."""
    keep = (rows >= 0) & (cols >= 0)
    return Csr.from_triplets(shape, rows[keep], cols[keep], vals[keep])


def _elements_1d(mesh: Mesh):
    """Segment data: lengths h (ne,), local stiffness (ne, 2, 2), basis
    gradients (ne, 2, 1), and the 3-point Gauss load rule: points
    (ne, 3, 1), weights (ne, 3) and basis values at the points (2, 3)."""
    h = element_volumes(mesh)
    loc_stiff = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h[:, None, None]
    grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
    a = mesh.nodes[mesh.elements[:, 0], 0]
    points = a[:, None] + 0.5 * h[:, None] * (1.0 + _GAUSS3_X[None, :])
    weights = 0.5 * h[:, None] * _GAUSS3_W[None, :]
    lam = 0.5 * (1.0 + _GAUSS3_X)  # local coordinate of each quad point
    basis = np.stack([1.0 - lam, lam], axis=0)
    return h, loc_stiff, grads, (points[:, :, None], weights, basis)


def _elements_2d(mesh: Mesh):
    """Triangle data: areas (ne,), local stiffness (ne, 3, 3), basis
    gradients (ne, 3, 2), and the edge-midpoint load rule: points
    (ne, 3, 2), weights (ne, 3) and basis values at the points (3, 3)."""
    pts = mesh.nodes[mesh.elements]  # (ne, 3, 2)
    area = element_volumes(mesh)
    # edge vector opposite local vertex i
    e = np.stack(
        [pts[:, 2] - pts[:, 1], pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 0]], axis=1
    )
    loc_stiff = np.einsum("eid,ejd->eij", e, e) / (4.0 * area)[:, None, None]
    # grad(lambda_i) = rot90(e_i) / (2*area)
    grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / (2.0 * area)[:, None, None]
    mids = 0.5 * np.stack(
        [pts[:, 0] + pts[:, 1], pts[:, 1] + pts[:, 2], pts[:, 2] + pts[:, 0]], axis=1
    )
    weights = (area / 3.0)[:, None] * np.ones((1, 3))
    # P1 values at edge midpoints: vertex i is 1/2 on its two adjacent edges
    basis = 0.5 * np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    return area, loc_stiff, grads, (mids, weights, basis)


def load_vector(system: FemSystem, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """b_i = integral of g * phi_i via the system's quadrature rule."""
    vals = np.asarray(g(system.quad_points), dtype=float)
    vals = np.broadcast_to(vals, (system.quad_points.shape[0],))
    out = np.zeros(system.n)
    system.load_kernel(vals, out)
    return out


def load_from_values(system: FemSystem, values: np.ndarray) -> np.ndarray:
    """Load vectors from integrand values at ``system.quad_points``.

    ``values`` may carry leading batch axes, e.g. (paths, n_quad); the
    result has the matching shape (..., n_interior).  The batch is loaded
    as one (n_quad, batch) block, through the kernel scipy's
    ``values @ load_matrix.T`` ends in.
    """
    values = np.asarray(values)
    block = values.reshape(-1, values.shape[-1]).T
    return csr_product(system.load_matrix)(block).T.reshape(values.shape[:-1] + (system.n,))


def l2_project(system: FemSystem, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Discrete L2 projection of g onto the interior P1 space.

    Solves M p = load(g); the Galerkin property (M p - load(g))_j = 0 holds
    for every basis index j up to solver accuracy.
    """
    return system.mass_solve(load_vector(system, g))
