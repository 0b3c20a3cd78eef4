"""Test helpers: the per-path increment reference of ``socfem.sample``,
per-path states read from the streamed path sweep
``socfem.spde.iter_forward_paths``, a ``GpResult`` of given fields, socfem
operators as scipy matrices, an independent H1 error reference, and the
comparator of an output table against its recorded reference."""

import numpy as np
import scipy.sparse as sp
from numpy.random import SeedSequence, default_rng

from socfem.analysis import _FD_STEP
from socfem.optimizer import GpResult, IterationRecord
from socfem.spde import iter_forward_paths


def reference_increments(P: int, grid, seed: int) -> np.ndarray:
    """The increments ``socfem.sample`` must draw, shape (P, N): one
    ``SeedSequence(seed, spawn_key=(p,))`` generator per path, one path at a time."""
    return np.array([
        default_rng(SeedSequence(seed, spawn_key=(p,))).normal(0.0, np.sqrt(grid.tau), grid.N)
        for p in range(P)
    ])


def path_states(spec, system, grid, control, ensemble) -> np.ndarray:
    """The state of every path at every level, shape (paths, N+1, n)."""
    out = np.empty((ensemble.paths, grid.N + 1, system.n))
    for n, x in iter_forward_paths(spec, system, grid, control, ensemble):
        out[:, n, :] = x.T
    return out


def path_states_at(spec, system, grid, control, ensemble, level: int) -> np.ndarray:
    """The state of every path at one level, shape (paths, n); the sweep stops there."""
    for n, x in iter_forward_paths(spec, system, grid, control, ensemble):
        if n == level:
            return x.T.copy()
    raise ValueError(f"level {level} is past the last level {grid.N}")


def gp_result(control, adjoint_mean, mu) -> GpResult:
    """A converged ``GpResult`` of the given fields, as ``compute_errors``
    reads it: one iteration record with ``mu`` and a zero step error, and a
    NaN mean state, which ``compute_errors`` never reads."""
    record = IterationRecord(1, mu, step_error=0.0, constraint_integral=np.nan)
    return GpResult(
        control=control,
        mu=mu,
        records=[record],
        converged=True,
        state_mean=np.full_like(control, np.nan),
        adjoint=adjoint_mean,
    )


def scipy_csr(op) -> sp.csr_matrix:
    """A socfem ``Csr`` operator as a scipy ``csr_matrix`` over the same
    arrays, for checks written with scipy's matrix API (``@``, ``.T``,
    ``.toarray()``).  Its products run the kernels socfem's own products
    run, so they give the same sums bit for bit."""
    return sp.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape)


def h1_error_sq(system, nodal, exact_eval) -> np.ndarray:
    """Squared H1 seminorm of (exact - P1 field) by element quadrature, the
    reference for ``socfem.analysis._FieldErrors``.

    ``nodal`` is a batch (..., n_interior) of coefficient vectors;
    ``exact_eval`` maps points (m, dim) to values (..., m).  The exact
    gradients are central differences with the package's step, the P1
    gradients scipy products of ``system.grad_ops``.
    """
    nodal = np.asarray(nodal, dtype=float)
    ne = system.mesh.elements.shape[0]
    qp, qwts = system.quad_points, system.quad_weights.reshape(ne, -1)
    batch = nodal.shape[:-1]
    total = np.zeros(batch)
    for step, op in zip(_FD_STEP * np.eye(system.mesh.dim), system.grad_ops):
        g_exact = (np.asarray(exact_eval(qp + step)) - np.asarray(exact_eval(qp - step))) / (
            2.0 * _FD_STEP
        )
        g_fe = (scipy_csr(op) @ nodal.reshape(-1, system.n).T).T.reshape(batch + (ne,))
        diff = g_exact.reshape(batch + (ne, qwts.shape[1])) - g_fe[..., None]
        total += np.einsum("...eq,eq->...", diff**2, qwts)
    return total


def assert_matches_reference(got: str, want: str, exact=frozenset(), rtol: float = 1e-12) -> None:
    """The CSV text ``got`` against its reference ``want``.

    The header and the row count must be equal, and each row must have a
    cell per column.  A cell of an ``exact`` column must equal its
    reference; every other cell must lie within ``rtol`` relative of it.
    """
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    header = want_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert len(g) == len(w) == len(header), (g, w)
        for column, a, b in zip(header, g, w):
            if column in exact:
                assert a == b, (column, g, w)
            else:
                x, y = float(a), float(b)
                assert abs(x - y) <= rtol * max(abs(x), abs(y)), (column, g, w)
